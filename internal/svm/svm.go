// Package svm implements the privacy-preserving learning experiment
// of the paper's Section VI-F (Table VI): a linear support vector
// machine trained as a least-squares SVM on a synthetic
// halfspace-separable dataset, comparing accuracy when the training
// features are released through a local-DP mechanism at different
// privacy levels.
package svm

import (
	"fmt"
	"math"

	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

// Model is a linear classifier sign(w·x + b).
type Model struct {
	W []float64
	B float64
}

// Predict returns the predicted label (+1 or -1).
func (m *Model) Predict(x []float64) int {
	s := m.B
	for i, w := range m.W {
		s += w * x[i]
	}
	if s >= 0 {
		return 1
	}
	return -1
}

// Dataset is a labelled feature matrix.
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// GenerateHalfspace draws n points uniformly in [-1, 1]^dim labelled
// by a random halfspace through the origin with the given margin:
// points closer than margin to the boundary are resampled, so the
// data is separable (the paper's setup: accuracy approaches 100% with
// enough clean data). It panics on invalid parameters.
func GenerateHalfspace(n, dim int, margin float64, seed uint64) Dataset {
	if n < 1 || dim < 1 {
		panic(fmt.Sprintf("svm: bad size n=%d dim=%d", n, dim))
	}
	if margin < 0 || margin >= 0.5 {
		panic(fmt.Sprintf("svm: margin %g out of [0, 0.5)", margin))
	}
	rng := urng.NewSplitMix64(seed)
	// Random unit normal vector.
	w := make([]float64, dim)
	var norm float64
	for i := range w {
		w[i] = rng.NormFloat64()
		norm += w[i] * w[i]
	}
	norm = math.Sqrt(norm)
	for i := range w {
		w[i] /= norm
	}
	d := Dataset{X: make([][]float64, 0, n), Y: make([]int, 0, n)}
	for len(d.X) < n {
		x := make([]float64, dim)
		var dot float64
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			dot += w[i] * x[i]
		}
		if math.Abs(dot) < margin {
			continue
		}
		label := 1
		if dot < 0 {
			label = -1
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, label)
	}
	return d
}

// NoiseFeatures releases every feature of every example through the
// mechanism factory (one mechanism per feature dimension, matching a
// per-sensor DP-Box). The privacy budget ε in par applies per
// feature; by composition the per-example loss is dim·ε.
func NoiseFeatures(d Dataset, newMech func(dim int) core.Mechanism) Dataset {
	if d.Len() == 0 {
		return d
	}
	dim := len(d.X[0])
	mechs := make([]core.Mechanism, dim)
	for j := range mechs {
		mechs[j] = newMech(j)
	}
	out := Dataset{X: make([][]float64, d.Len()), Y: make([]int, d.Len())}
	copy(out.Y, d.Y)
	for i, x := range d.X {
		nx := make([]float64, dim)
		for j, v := range x {
			nx[j] = mechs[j].Noise(v).Value
		}
		out.X[i] = nx
	}
	return out
}

// TrainLSSVM trains the least-squares SVM (Suykens & Vandewalle):
// ridge regression of the ±1 labels on the (bias-augmented) features,
// solved exactly. Under zero-mean feature noise the estimated
// direction is consistent — the estimator the heavily-noised regime
// of Table VI needs, free of stochastic-subgradient luck. gamma is
// the ridge regularizer (per-example). It panics on an empty dataset,
// non-positive gamma, or a singular system (impossible for gamma > 0).
func TrainLSSVM(d Dataset, gamma float64) *Model {
	if d.Len() == 0 {
		panic("svm: empty training set")
	}
	if gamma <= 0 {
		panic(fmt.Sprintf("svm: non-positive gamma %g", gamma))
	}
	dim := len(d.X[0])
	n := dim + 1 // bias column
	// Normal equations A = X'X + γ·N·I (bias unregularized), v = X'y.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for r, x := range d.X {
		y := float64(d.Y[r])
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				a[i][j] += x[i] * x[j]
			}
			a[i][dim] += x[i] // bias cross terms accumulate below
			a[i][n] += x[i] * y
		}
		a[dim][n] += y
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
		a[dim][i] = a[i][dim]
	}
	a[dim][dim] = float64(d.Len())
	reg := gamma * float64(d.Len())
	for i := 0; i < dim; i++ {
		a[i][i] += reg
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if a[col][col] == 0 {
			panic("svm: singular normal equations")
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	sol := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * sol[c]
		}
		sol[r] = s / a[r][r]
	}
	return &Model{W: sol[:dim], B: sol[dim]}
}

// Accuracy evaluates the model on a test set.
func Accuracy(m *Model, d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range d.X {
		if m.Predict(x) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}
