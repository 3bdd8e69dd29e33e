package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-sample p95 = %v, want 7", got)
	}
}

func TestTailSampleRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		above int
		ok    bool
	}{
		{200, 95, 10, true},
		{199, 95, 9, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{0, 95, 0, false},
	} {
		if got := samplesAbove(c.n, c.p); got != c.above {
			t.Errorf("samplesAbove(%d, %v) = %d, want %d", c.n, c.p, got, c.above)
		}
		if got := tailResolved(c.n, c.p); got != c.ok {
			t.Errorf("tailResolved(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}
