// Package dataset provides the synthetic stand-ins for CIFAR-10 and
// FaceScrub used by the experiments (the real datasets are not available in
// this offline environment; see DESIGN.md §2 for the substitution
// argument). The generators are deterministic given a seed and are
// calibrated so that per-image pixel standard deviations span a wide range
// around a mean near 50, which is the property the paper's pre-processing
// step (std-window candidate selection) depends on.
package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/tensor"
)

// Dataset is a labeled image collection.
type Dataset struct {
	// Name describes the dataset for logs.
	Name string
	// Classes is the number of distinct labels.
	Classes int
	// C, H, W give the image geometry.
	C, H, W int
	// Images holds the samples; Labels[i] is the class of Images[i].
	Images []*img.Image
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Images) }

// ContentDigest returns a hex SHA-256 over the dataset's geometry, labels,
// and exact pixel bits, in sample order. Two datasets with the same digest
// drive every downstream stage identically, which is what the pipeline
// cache keys on (the Name is deliberately excluded — renaming a dataset
// must not invalidate cached work).
func (d *Dataset) ContentDigest() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(d.Classes)
	writeInt(d.C)
	writeInt(d.H)
	writeInt(d.W)
	writeInt(len(d.Images))
	for i, im := range d.Images {
		writeInt(d.Labels[i])
		for _, p := range im.Pix {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Split partitions the dataset into train and test subsets, assigning every
// k-th sample *of each class* to test so class balance is preserved
// regardless of label ordering. testFrac must be in (0, 1).
func (d *Dataset) Split(testFrac float64) (train, test *Dataset) {
	if testFrac <= 0 || testFrac >= 1 {
		panic(fmt.Sprintf("dataset: bad test fraction %v", testFrac))
	}
	every := int(math.Round(1 / testFrac))
	if every < 2 {
		every = 2
	}
	train = &Dataset{Name: d.Name + "/train", Classes: d.Classes, C: d.C, H: d.H, W: d.W}
	test = &Dataset{Name: d.Name + "/test", Classes: d.Classes, C: d.C, H: d.H, W: d.W}
	seen := make(map[int]int)
	for i := range d.Images {
		c := d.Labels[i]
		seen[c]++
		if seen[c]%every == 0 {
			test.Images = append(test.Images, d.Images[i])
			test.Labels = append(test.Labels, d.Labels[i])
		} else {
			train.Images = append(train.Images, d.Images[i])
			train.Labels = append(train.Labels, d.Labels[i])
		}
	}
	return train, test
}

// Tensors converts the dataset to a (N, C*H*W) tensor of [0,1]-normalized
// pixels plus the label slice, ready for training.
func (d *Dataset) Tensors() (*tensor.Tensor, []int) {
	n := d.Len()
	sample := d.C * d.H * d.W
	x := tensor.New(n, sample)
	xd := x.Data()
	for i, im := range d.Images {
		for j, v := range im.Pix {
			xd[i*sample+j] = v / 255.0
		}
	}
	labels := make([]int, n)
	copy(labels, d.Labels)
	return x, labels
}

// Gray returns a grayscale copy of the dataset (no-op copy for C==1).
func (d *Dataset) Gray() *Dataset {
	out := &Dataset{Name: d.Name + "/gray", Classes: d.Classes, C: 1, H: d.H, W: d.W}
	out.Labels = append(out.Labels, d.Labels...)
	for _, im := range d.Images {
		out.Images = append(out.Images, im.Gray())
	}
	return out
}

// Subset returns a new dataset containing the samples at idx, sharing image
// storage with d.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Name: d.Name + "/subset", Classes: d.Classes, C: d.C, H: d.H, W: d.W}
	for _, i := range idx {
		out.Images = append(out.Images, d.Images[i])
		out.Labels = append(out.Labels, d.Labels[i])
	}
	return out
}

// Stds returns the per-image pixel standard deviations.
func (d *Dataset) Stds() []float64 {
	out := make([]float64, d.Len())
	for i, im := range d.Images {
		out[i] = im.Std()
	}
	return out
}

// StdMean returns the mean of the per-image stds (the paper's std_mean).
func (d *Dataset) StdMean() float64 {
	stds := d.Stds()
	s := 0.0
	for _, v := range stds {
		s += v
	}
	if len(stds) == 0 {
		return 0
	}
	return s / float64(len(stds))
}

// IndicesWithStdIn returns the indices of images whose std lies strictly
// inside (lo, hi), the paper's candidate-set criterion.
func (d *Dataset) IndicesWithStdIn(lo, hi float64) []int {
	var out []int
	for i, im := range d.Images {
		s := im.Std()
		if s > lo && s < hi {
			out = append(out, i)
		}
	}
	return out
}
