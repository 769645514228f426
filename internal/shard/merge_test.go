package shard

import (
	"testing"

	"idebench/internal/engine"
)

// TestMergeInputsEqual pins the merge memo's key: every input a merged
// snapshot depends on must break equality on its own, the translated
// watermarks included (a zero-row sub-batch moves them under the same
// fragment pointers).
func TestMergeInputsEqual(t *testing.T) {
	p0, p1 := &engine.Partial{}, &engine.Partial{}
	base := func() *mergeInputs {
		return &mergeInputs{frags: []*engine.Partial{p0, p1}, wms: []int64{10, 20}, global: 30, z: 1.96}
	}
	if !base().equal(base()) {
		t.Fatalf("identical inputs compare unequal")
	}
	if new(mergeInputs).equal(base()) {
		t.Fatalf("the empty memo matches a real input")
	}
	for name, mut := range map[string]func(*mergeInputs){
		"fragment pointer": func(in *mergeInputs) { in.frags[1] = &engine.Partial{} },
		"uncovered":        func(in *mergeInputs) { in.frags[0] = nil },
		"watermark":        func(in *mergeInputs) { in.wms[0] = 11 },
		"global":           func(in *mergeInputs) { in.global = 31 },
		"z":                func(in *mergeInputs) { in.z = 2.58 },
		"partitions": func(in *mergeInputs) {
			in.frags, in.wms = append(in.frags, p0), append(in.wms, 10)
		},
	} {
		in := base()
		mut(in)
		if base().equal(in) || in.equal(base()) {
			t.Errorf("changing the %s left the inputs equal", name)
		}
	}
}
