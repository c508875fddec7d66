package wavefront_test

import (
	"reflect"
	"testing"

	"wavefront"
	"wavefront/internal/pipeline"
)

// TestOneRunConfiguration pins the single configuration: the four names a
// caller can write are one type, and it has exactly these fields. Adding a
// run option means adding it here, once, and nowhere else.
func TestOneRunConfiguration(t *testing.T) {
	want := []string{
		"Procs", "Domain", "WavefrontDim", "Block",
		"Trace", "Faults", "LinkCapacity", "Transport", "Checkpoint",
		"Metrics", "MetricsAddr", "Pool",
		"Scheduler", "Workers", "Postmortem",
	}
	base := reflect.TypeOf(pipeline.Config{})
	for name, typ := range map[string]reflect.Type{
		"wavefront.Pipeline":      reflect.TypeOf(wavefront.Pipeline{}),
		"wavefront.SessionConfig": reflect.TypeOf(wavefront.SessionConfig{}),
		"pipeline.SessionConfig":  reflect.TypeOf(pipeline.SessionConfig{}),
	} {
		if typ != base {
			t.Errorf("%s is %v, not pipeline.Config", name, typ)
		}
	}
	var got []string
	for i := 0; i < base.NumField(); i++ {
		got = append(got, base.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline.Config has fields\n  %v\nwant the %d\n  %v", got, len(want), want)
	}
}
