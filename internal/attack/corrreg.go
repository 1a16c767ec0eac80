// Package attack implements the training-data encoding attacks the paper
// studies: the correlated-value-encoding attack of Song et al. (CCS 2017)
// with a uniform correlation rate (the paper's Eq 1), the paper's
// layer-wise variant with per-group rates (Eq 2), the std-window data
// pre-processing step (Sec. IV-A), the weight→image decoder the adversary
// runs on a released model, and the LSB- and sign-encoding baselines the
// paper compares against in Sec. II-B.
package attack

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// GroupTarget binds one layer group to its encoding payload: the secret
// pixel vector, the group's correlation rate λ_k and its weight share P_k.
type GroupTarget struct {
	// Group is the set of weights that carries this payload.
	Group nn.LayerGroup
	// Lambda is the correlation rate λ_k; zero disables encoding for the
	// group (the paper sets λ=0 for accuracy-critical early groups).
	Lambda float64
	// Secret is the target vector s (raw pixel values); only the first
	// min(len(Secret), Group.NumEl) elements participate.
	Secret []float64
	// PK is the group's share ℓ_k/ℓ of the total correlated weights
	// (Eq 2's P_k; 1 for the uniform Eq 1 attack).
	PK float64
}

// CorrelationReg is the malicious regularization term. With a single
// all-weights target it is exactly Eq 1:
//
//	C(θ,s) = −λ_c · |Σ(θ_i−θ̄)(s_i−s̄)| / (‖θ−θ̄‖·‖s−s̄‖)
//
// and with per-group targets it is Eq 2:
//
//	C(θ,s) = −Σ_k λ_k · |corr(θ_k, s_k)| · P_k
//
// The gradient is computed in closed form over each flattened group and
// injected through the trainer's Regularizer hook.
type CorrelationReg struct {
	// Targets holds one entry per encoding group.
	Targets []GroupTarget

	lastCorr []float64
	// theta and grad are Apply's scratch, kept across calls: one training
	// step would otherwise allocate two vectors the size of every group.
	theta, grad []float64
}

// NewUniformReg builds the Eq 1 attack: one target spanning every weight
// parameter of the model, correlation rate lambda.
func NewUniformReg(m *nn.Model, lambda float64, secret []float64) *CorrelationReg {
	groups := m.GroupsByConvIndex(nil) // single group with all weights
	return &CorrelationReg{Targets: []GroupTarget{{
		Group: groups[0], Lambda: lambda, Secret: secret, PK: 1,
	}}}
}

// NewLayerwiseReg builds the Eq 2 attack over the given groups. lambdas and
// secrets are parallel to groups; P_k is computed as the group's share of
// the total weights across groups with a non-zero rate (the "total
// correlated weights amount" ℓ of the paper).
func NewLayerwiseReg(groups []nn.LayerGroup, lambdas []float64, secrets [][]float64) *CorrelationReg {
	if len(groups) != len(lambdas) || len(groups) != len(secrets) {
		panic(fmt.Sprintf("attack: %d groups, %d lambdas, %d secrets", len(groups), len(lambdas), len(secrets)))
	}
	total := 0
	for i, g := range groups {
		if lambdas[i] != 0 {
			total += g.NumEl
		}
	}
	if total == 0 {
		total = 1
	}
	r := &CorrelationReg{}
	for i, g := range groups {
		pk := float64(g.NumEl) / float64(total)
		r.Targets = append(r.Targets, GroupTarget{
			Group: g, Lambda: lambdas[i], Secret: secrets[i], PK: pk,
		})
	}
	return r
}

// Apply implements train.Regularizer: it adds −λ_k·P_k·∇|corr| to each
// group's weight gradients and returns the total penalty value.
func (r *CorrelationReg) Apply(m *nn.Model) float64 {
	total := 0.0
	if cap(r.lastCorr) < len(r.Targets) {
		r.lastCorr = make([]float64, len(r.Targets))
	}
	r.lastCorr = r.lastCorr[:len(r.Targets)]
	for ti, t := range r.Targets {
		r.lastCorr[ti] = 0
		if t.Lambda == 0 || len(t.Secret) == 0 || t.Group.NumEl == 0 {
			continue
		}
		r.theta = t.Group.AppendValues(r.theta[:0])
		if cap(r.grad) < len(r.theta) {
			r.grad = make([]float64, len(r.theta))
		}
		grad := r.grad[:len(r.theta)]
		corr := corrGrad(r.theta, t.Secret, grad)
		r.lastCorr[ti] = corr
		scale := -t.Lambda * t.PK * sign(corr)
		for i := range grad {
			grad[i] *= scale
		}
		t.Group.AddToGrads(grad)
		total += -t.Lambda * t.PK * math.Abs(corr)
	}
	return total
}

// Correlations returns the Pearson correlation of each group with its
// secret as of the last Apply call (diagnostics; Fig 2a's driver).
func (r *CorrelationReg) Correlations() []float64 {
	out := make([]float64, len(r.lastCorr))
	copy(out, r.lastCorr)
	return out
}

// corrGrad computes the Pearson correlation r between the first
// L = min(len(theta), len(s)) elements of theta and s, and writes d r /
// d theta into grad as a full-length vector (zero beyond L; len(grad) ==
// len(theta), previous contents ignored).
//
// With x = θ−θ̄ and y = s−s̄ (means over the first L elements),
// a = Σxy, b = ‖x‖, c = ‖y‖:
//
//	r        = a/(b·c)
//	∂r/∂θ_j  = (y_j − (a/b²)·x_j) / (b·c)
//
// (the θ̄ chain terms vanish because Σy = 0).
func corrGrad(theta, s, grad []float64) float64 {
	l := len(theta)
	if len(s) < l {
		l = len(s)
	}
	clear(grad)
	if l < 2 {
		return 0
	}
	var mt, ms float64
	for i := 0; i < l; i++ {
		mt += theta[i]
		ms += s[i]
	}
	mt /= float64(l)
	ms /= float64(l)
	var a, bb, cc float64
	for i := 0; i < l; i++ {
		x := theta[i] - mt
		y := s[i] - ms
		a += x * y
		bb += x * x
		cc += y * y
	}
	if bb == 0 || cc == 0 {
		return 0
	}
	b := math.Sqrt(bb)
	c := math.Sqrt(cc)
	r := a / (b * c)
	inv := 1.0 / (b * c)
	k := a / bb
	for i := 0; i < l; i++ {
		x := theta[i] - mt
		y := s[i] - ms
		grad[i] = (y - k*x) * inv
	}
	return r
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	// At r == 0 the |r| penalty is non-differentiable; pushing in the
	// positive direction breaks the tie deterministically.
	return 1
}
