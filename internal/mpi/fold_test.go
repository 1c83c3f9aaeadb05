package mpi_test

import (
	"math"
	"slices"
	"testing"

	"ftsg/internal/mpi"
)

// The operators here are taken in an external package, at a non-generic
// site, exactly as a caller of Reduce or Allreduce takes them: every one the
// fold table holds must be recognised from here and fold bit for bit as its
// per-element loop would.

var foldLens = []int{0, 1, 7, 5120}

// floatVals covers NaN of both signs, ±0, ±Inf, subnormals and overflow.
var floatVals = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 3,
}

// operands lays out n elements so that, once n >= len(floatVals)², every
// ordered pair of values meets at some index.
func operands(n int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	k := len(floatVals)
	for i := range a {
		a[i], b[i] = floatVals[i%k], floatVals[(i/k)%k]
	}
	return a, b
}

// checkFold folds through mpi.Fold at every length, with dst a fresh buffer,
// a itself or b itself, and compares each element's bits with op(a[i], b[i]).
func checkFold(t *testing.T, name string, op func(a, b float64) float64, wantFused bool) {
	t.Helper()
	for _, n := range foldLens {
		a, b := operands(n)
		want := make([]float64, n)
		for i := range want {
			want[i] = op(a[i], b[i])
		}
		for _, alias := range []string{"fresh", "dst=a", "dst=b"} {
			x, y := slices.Clone(a), slices.Clone(b)
			dst := map[string][]float64{"fresh": make([]float64, n), "dst=a": x, "dst=b": y}[alias]
			if fused := mpi.Fold(op, dst, x, y); fused != wantFused {
				t.Fatalf("%s: fused = %v, want %v", name, fused, wantFused)
			}
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d %s: [%d] = op(%v, %v) folded to %v, want %v", name, n, alias, i, a[i], b[i], dst[i], want[i])
				}
			}
		}
	}
}

func TestFoldSumBitIdentical(t *testing.T) {
	checkFold(t, "Sum[float64]", mpi.Sum[float64], true)
}

// sumAt returns Sum[T] as written inside generic code: a closure of its own,
// which the fold table cannot recognise.
func sumAt[T mpi.Number]() func(T, T) T { return mpi.Sum[T] }

// TestFoldFallback: operators the table does not hold take the per-element
// loop, and an operator that computes a + b gives the fused Sum's bits.
func TestFoldFallback(t *testing.T) {
	userSum := func(a, b float64) float64 { return a + b }
	a, b := operands(5120)
	fused := make([]float64, len(a))
	mpi.Fold(mpi.Sum[float64], fused, a, b)
	for name, op := range map[string]func(a, b float64) float64{"closure": userSum, "generic-site Sum": sumAt[float64]()} {
		checkFold(t, name, op, false)
		got := make([]float64, len(a))
		mpi.Fold(op, got, a, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(fused[i]) {
				t.Fatalf("%s: [%d] = %v, fused Sum gives %v", name, i, got[i], fused[i])
			}
		}
	}
}

// TestFoldLookupAllocatesNothing: resolving the operator, which every
// reduction does once per call, allocates nothing (an empty fold is the
// lookup alone).
func TestFoldLookupAllocatesNothing(t *testing.T) {
	sum := mpi.Sum[float64]
	user := func(a, b int) int { return a ^ b }
	if n := testing.AllocsPerRun(100, func() { mpi.Fold(sum, nil, nil, nil) }); n != 0 {
		t.Errorf("looking up a built-in allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { mpi.Fold(user, nil, nil, nil) }); n != 0 {
		t.Errorf("looking up a user operator allocates %v times", n)
	}
}
