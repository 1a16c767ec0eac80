package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits (N, K) with integer class labels, and the gradient of that loss
// with respect to the logits. The softmax is computed in a numerically
// stable way (max subtraction).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n := logits.Dim(0)
	k := logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	grad = tensor.New(n, k)
	ld := logits.Data()
	gd := grad.Data()
	invN := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			grow[j] = e
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := grow[y] / sum
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
		for j := range grow {
			grow[j] = grow[j] / sum * invN
		}
		grow[y] -= invN
	}
	return loss * invN, grad
}

// Softmax returns the row-wise softmax of logits (N, K).
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, k)
	ld, od := logits.Data(), out.Data()
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		orow := od[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}
