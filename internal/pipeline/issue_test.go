package pipeline

import (
	"slices"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/uarch"
	"rsepsim/internal/workload"
)

// TestPickPortReach pins which issue ports pickPort can hand each class of
// regular operation, in preference order: the port it picks when all are
// free, then the next one while the earlier picks are busy, and so on. Every
// port whose Table I capabilities admit the class is reachable except port 3
// (ALU|Branch), which pickPort never returns: its ALU order is
// anyFUOrder[:7], which stops before port 3. Regular ALU and branch ops
// therefore get three ALU ports, not Table I's four; only validation µ-ops
// under Issue2xAnyFU reach port 3. That deviation is marked port3 here and
// recorded in ROADMAP item 2; fixing it changes the goldens, so it belongs to
// a recalibration, not to this test.
func TestPickPortReach(t *testing.T) {
	cases := []struct {
		class uarch.Class
		want  []int
		port3 bool // Table I also admits port 3, which is unreachable
	}{
		{uarch.ClassNop, []int{0, 1, 2}, true},
		{uarch.ClassIntAlu, []int{0, 1, 2}, true},
		{uarch.ClassMove, []int{0, 1, 2}, true},
		{uarch.ClassBranch, []int{0, 1, 2}, true},
		{uarch.ClassIntMul, []int{1}, false},
		{uarch.ClassIntDiv, []int{2}, false},
		{uarch.ClassFPAlu, []int{4, 5, 6}, false},
		{uarch.ClassFPMul, []int{5}, false},
		{uarch.ClassFPDiv, []int{6}, false},
		{uarch.ClassLoad, []int{7, 8}, false},
		{uarch.ClassStore, []int{9, 7, 8}, false},
	}
	core := New(config.TableI(), workload.New(workload.MustByName("mcf"), 1))
	for _, tc := range cases {
		for i := range core.ports {
			core.ports[i].busyUntil = 0
		}
		var d dyn
		d.in.Class = tc.class
		var got []int
		for p := core.pickPort(&d); p >= 0; p = core.pickPort(&d) {
			got = append(got, p)
			core.ports[p].busyUntil = core.cycle + 1
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("class %v: pickPort reaches ports %v, want %v", tc.class, got, tc.want)
		}

		var capable []int
		for i, p := range tableIPorts {
			if p.caps&classFU(tc.class) != 0 && (i != 3 || !tc.port3) {
				capable = append(capable, i)
			}
		}
		if slices.Sort(got); !slices.Equal(got, capable) {
			t.Errorf("class %v: reachable ports %v, Table I ports %v (port 3 deviation marked: %v)",
				tc.class, got, capable, tc.port3)
		}
	}
}
