package ftcomb

import (
	"testing"

	"ftsg/internal/combine"
)

func BenchmarkCoefficients(b *testing.B) {
	ly := combine.Layout{N: 13, L: 4}
	J := Downset(ly.Diagonal())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Coefficients(J)
	}
}

func BenchmarkRecoverSchemeSingleLoss(b *testing.B) {
	ly := combine.Layout{N: 13, L: 4}
	held := alternateHeld(ly)
	lost := NewSet(ly.Diagonal()[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RecoverScheme(held, lost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverSchemeCascade(b *testing.B) {
	ly := combine.Layout{N: 13, L: 4}
	held := alternateHeld(ly)
	// A diagonal plus its lower grid forces truncation into the extra
	// layers — the worst-case coefficient recomputation.
	lost := NewSet(ly.Diagonal()[1], ly.LowerDiagonal()[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RecoverScheme(held, lost); err != nil {
			b.Fatal(err)
		}
	}
}
