package metrics

import "testing"

func TestGaugeLevels(t *testing.T) {
	var g Gauge
	if g.v.Load() != 0 {
		t.Errorf("zero-value gauge = %d", g.v.Load())
	}
	g.Set(7)
	if g.v.Load() != 7 {
		t.Errorf("after Set(7): %d", g.v.Load())
	}
	g.Set(2) // Set overwrites, it does not accumulate
	if g.v.Load() != 2 {
		t.Errorf("after Set(2): %d", g.v.Load())
	}
	g.Reset()
	if g.v.Load() != 0 {
		t.Errorf("after Reset: %d", g.v.Load())
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	//vpvet:allow metername test-local instrument names
	g := r.Gauge("service.x.queue_depth")
	g.Set(5)
	//vpvet:allow metername test-local instrument names
	if again := r.Gauge("service.x.queue_depth"); again != g || again.v.Load() != 5 {
		t.Error("Gauge did not return the registered instrument")
	}
	//vpvet:allow metername test-local instrument names
	r.Gauge("service.x.busy_workers").Set(2)
	r.Reset()
	if g.v.Load() != 0 {
		t.Errorf("registry Reset left gauge at %d", g.v.Load())
	}
}
