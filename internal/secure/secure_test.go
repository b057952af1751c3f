package secure

import (
	"math"
	"testing"

	"mspastry/internal/id"
)

// spread returns n identifiers evenly spaced around the ring, offset so
// none sits at zero.
func spread(n int) []id.ID {
	ids := make([]id.ID, n)
	step := math.MaxUint64 / uint64(n)
	for i := 0; i < n; i++ {
		ids[i] = id.New(uint64(i)*step+step/3, 0)
	}
	return ids
}

// cluster returns n identifiers packed into a tiny arc starting at base,
// one unit of Hi apart (adjacent at ring scale).
func cluster(base uint64, n int) []id.ID {
	ids := make([]id.ID, n)
	for i := 0; i < n; i++ {
		ids[i] = id.New(base+uint64(i), 0)
	}
	return ids
}

func TestMeanGapBoundaries(t *testing.T) {
	even16 := spread(16)
	evenGap, _ := MeanGap(even16)
	cases := []struct {
		name    string
		ids     []id.ID
		wantOK  bool
		wantGap float64 // 0 = don't check the value
	}{
		{name: "empty", ids: nil, wantOK: false},
		{name: "single", ids: spread(1), wantOK: false},
		{name: "all duplicates", ids: []id.ID{id.New(7, 7), id.New(7, 7), id.New(7, 7)}, wantOK: false},
		{name: "two nodes smaller arc", ids: []id.ID{id.New(0, 0), id.New(1, 0)},
			wantOK: true, wantGap: toFloat(id.New(1, 0))},
		{name: "duplicates collapse", ids: append(append([]id.ID{}, even16...), even16...),
			wantOK: true, wantGap: evenGap},
		{name: "adjacent ids", ids: cluster(1000, 8),
			wantOK: true, wantGap: toFloat(id.New(1, 0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gap, ok := MeanGap(tc.ids)
			if ok != tc.wantOK {
				t.Fatalf("MeanGap ok = %v, want %v", ok, tc.wantOK)
			}
			if tc.wantGap != 0 && math.Abs(gap-tc.wantGap) > tc.wantGap*1e-9 {
				t.Fatalf("MeanGap = %g, want %g", gap, tc.wantGap)
			}
		})
	}
	// Evenly spaced ids: the mean gap is ring/n (the dropped "largest"
	// gap equals every other gap, so dropping it changes nothing).
	if want := ringSize / 16; math.Abs(evenGap-want) > want*1e-3 {
		t.Fatalf("even spread gap = %g, want ~%g", evenGap, want)
	}
}

// TestMeanGapDropsUncoveredArc checks that the arc of the ring a leaf
// set does not cover is excluded: a tight cluster of 9 nodes must report
// the intra-cluster gap, not the huge wrap-around gap.
func TestMeanGapDropsUncoveredArc(t *testing.T) {
	gap, ok := MeanGap(cluster(1<<40, 9))
	if !ok {
		t.Fatal("MeanGap not ok for 9-node cluster")
	}
	if want := toFloat(id.New(1, 0)); math.Abs(gap-want) > want*1e-9 {
		t.Fatalf("cluster gap = %g, want %g (uncovered arc must be dropped)", gap, want)
	}
}

func TestCheckVerdicts(t *testing.T) {
	// A dense honest world: 256 nodes → local gap ring/256.
	world := spread(256)
	localGap, _ := MeanGap(world[:32])
	// Honest report: root = closest world node to the key, leaves = its
	// ring neighbours.
	key := id.New(1<<60, 12345)
	root := closestTo(world, key)
	honest := neighboursOf(world, root, 16)

	// Colluders: 16 of the 256 nodes (f ≈ 0.06), none adjacent.
	var colluders []id.ID
	for i := 0; i < len(world); i += 16 {
		colluders = append(colluders, world[i])
	}
	badRoot := closestTo(colluders, key)

	cases := []struct {
		name     string
		rep      Report
		localGap float64
		want     Verdict
	}{
		{name: "honest dense report", rep: Report{Key: key, Root: root, Leaves: honest},
			localGap: localGap, want: Pass},
		{name: "no local estimate abstains", rep: Report{Key: key, Root: badRoot, Leaves: colluders},
			localGap: 0, want: Pass},
		{name: "colluder-only leafset is sparse", rep: Report{Key: key, Root: badRoot, Leaves: without(colluders, badRoot)},
			localGap: localGap, want: Sparse},
		{name: "empty leafset on populated ring", rep: Report{Key: key, Root: badRoot},
			localGap: localGap, want: Sparse},
		{name: "dense leafset betrays far root", rep: Report{Key: key, Root: world[128], Leaves: neighboursOf(world, world[128], 16)},
			localGap: localGap, want: CloserMember},
		// Leaves strictly on the far side of the bogus root, so the
		// self-incrimination check stays quiet and only the root-distance
		// test can fire.
		{name: "far root with plausible density", rep: Report{Key: key, Root: world[128], Leaves: world[129:145]},
			localGap: localGap, want: FarRoot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Check(tc.rep, tc.localGap, 0); got != tc.want {
				t.Fatalf("Check = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCheckMinLeaves pins the leaf-count component: with minLeaves set,
// a report naming fewer distinct leaves than the threshold is sparse no
// matter how plausible its gaps look — the forger cannot name more
// certified identifiers than it controls — while a full honest report,
// or any report under a disabled (zero) threshold, is unaffected.
// Duplicated leaves and the root listed among the leaves must not count
// toward the minimum.
func TestCheckMinLeaves(t *testing.T) {
	const minLeaves = 8
	world := spread(256)
	key := id.New(1<<60, 12345)
	root := closestTo(world, key)
	honest := neighboursOf(world, root, 16)
	localGap, _ := MeanGap(world[:32])

	if got := Check(Report{Key: key, Root: root, Leaves: honest}, localGap, minLeaves); got != Pass {
		t.Fatalf("full honest report under minLeaves: %v, want Pass", got)
	}
	// Adjacent ring neighbours: density looks perfect, count does not.
	short := neighboursOf(world, root, 4)
	if got := Check(Report{Key: key, Root: root, Leaves: short}, localGap, minLeaves); got != Sparse {
		t.Fatalf("4-leaf report under minLeaves=8: %v, want Sparse", got)
	}
	// Padding with duplicates or the root itself must not help.
	padded := append(append([]id.ID{}, short...), short[0], short[1], root, root)
	if got := Check(Report{Key: key, Root: root, Leaves: padded}, localGap, minLeaves); got != Sparse {
		t.Fatalf("padded report under minLeaves=8: %v, want Sparse", got)
	}
	if got := Check(Report{Key: key, Root: root, Leaves: short}, localGap, 0); got != Pass {
		t.Fatalf("4-leaf report with count check disabled: %v, want Pass", got)
	}
}

// TestCheckHonestSparseNetwork is the critical false-positive guard: in
// a genuinely tiny/sparse network the local estimate is just as sparse
// as the reports, so every honest report must pass — at every size down
// to two nodes.
func TestCheckHonestSparseNetwork(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		world := spread(n)
		localGap, ok := MeanGap(world)
		if !ok {
			t.Fatalf("n=%d: no local gap", n)
		}
		for _, key := range []id.ID{id.New(5, 5), id.New(1<<63, 0), id.Max} {
			root := closestTo(world, key)
			rep := Report{Key: key, Root: root, Leaves: without(world, root)}
			if got := Check(rep, localGap, 0); got != Pass {
				t.Fatalf("n=%d key=%v: honest sparse report got %v, want Pass", n, key, got)
			}
		}
	}
}

func TestEstimator(t *testing.T) {
	var e Estimator
	if got := e.Blend(0); got != 0 {
		t.Fatalf("empty estimator Blend(0) = %g, want 0", got)
	}
	if got := e.Blend(42); got != 42 {
		t.Fatalf("no-history Blend(42) = %g, want leaf gap alone", got)
	}
	e.Observe(100)
	if e.samples != 1 || e.Blend(0) != 100 {
		t.Fatalf("after one sample: samples=%d blend=%g", e.samples, e.Blend(0))
	}
	if got := e.Blend(50); got != 75 {
		t.Fatalf("Blend(50) with history 100 = %g, want 75", got)
	}
	e.Observe(0)  // non-positive gaps are ignored
	e.Observe(-1) // ditto
	if e.samples != 1 {
		t.Fatalf("non-positive observations changed sample count: %d", e.samples)
	}
	for i := 0; i < 200; i++ {
		e.Observe(10)
	}
	if got := e.Blend(0); math.Abs(got-10) > 0.5 {
		t.Fatalf("EWMA did not converge to 10: %g", got)
	}
}

func closestTo(ids []id.ID, key id.ID) id.ID {
	best := ids[0]
	for _, x := range ids[1:] {
		if id.CloserToKey(key, x, best) {
			best = x
		}
	}
	return best
}

// neighboursOf returns the k ids from world closest to centre (excluding
// centre itself) — a stand-in for centre's leaf set.
func neighboursOf(world []id.ID, centre id.ID, k int) []id.ID {
	rest := without(world, centre)
	for i := 0; i < k && i < len(rest); i++ {
		for j := i + 1; j < len(rest); j++ {
			if id.CloserToKey(centre, rest[j], rest[i]) {
				rest[i], rest[j] = rest[j], rest[i]
			}
		}
	}
	if k > len(rest) {
		k = len(rest)
	}
	return rest[:k]
}

func without(ids []id.ID, x id.ID) []id.ID {
	out := make([]id.ID, 0, len(ids))
	for _, y := range ids {
		if y != x {
			out = append(out, y)
		}
	}
	return out
}
