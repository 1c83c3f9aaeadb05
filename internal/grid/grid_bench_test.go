package grid

import (
	"math"
	"testing"
)

func benchGrid(lv Level) *Grid {
	g := New(lv)
	g.Fill(func(x, y float64) float64 { return math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y) })
	return g
}

func BenchmarkFill(b *testing.B) {
	g := New(Level{I: 8, J: 8})
	f := func(x, y float64) float64 { return x * y }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Fill(f)
	}
}

func BenchmarkAccumulateSampled(b *testing.B) {
	src := benchGrid(Level{I: 5, J: 8})
	dst := New(Level{I: 8, J: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.AccumulateSampled(src, 1.0)
	}
}

func BenchmarkRestrict(b *testing.B) {
	fine := benchGrid(Level{I: 8, J: 8})
	coarse := New(Level{I: 5, J: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RestrictInto(fine, coarse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchize(b *testing.B) {
	g := benchGrid(Level{I: 8, J: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hierarchize(g)
	}
}

func BenchmarkL1Error(b *testing.B) {
	g := benchGrid(Level{I: 8, J: 8})
	f := func(x, y float64) float64 { return 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.L1Error(f)
	}
}
