package router

import (
	"reflect"
	"testing"
)

// TestDefaultOptionsIsWithDefaultsFixedPoint: a zero Options and
// DefaultOptions normalize to the same configuration, so atomemu-router's
// flag defaults (which read DefaultOptions) cannot drift from what an
// embedder gets.
func TestDefaultOptionsIsWithDefaultsFixedPoint(t *testing.T) {
	strip := func(o Options) Options {
		o.Client, o.Logger = nil, nil
		return o
	}
	def := strip(DefaultOptions())
	if got := strip(Options{}.withDefaults()); !reflect.DeepEqual(got, def) {
		t.Errorf("Options{}.withDefaults()\n got  %+v\n want %+v", got, def)
	}
	if got := strip(DefaultOptions().withDefaults()); !reflect.DeepEqual(got, def) {
		t.Errorf("DefaultOptions().withDefaults() moved\n got  %+v\n want %+v", got, def)
	}
}
