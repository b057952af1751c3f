package pastry

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"mspastry/internal/id"
)

// The maintenance path walks the routing table in place and gathers into
// node-owned scratch. These tests hold it to the implementations it
// replaced — kept here as references — on random routing state: the same
// members in the same order, since the order decides which probes go out
// first and with them every seeded number downstream.

// refNearestKnown is nearestKnown as it was: a seen-map over copies of the
// table and the leaf set.
func refNearestKnown(n *Node, target id.ID, k int) []NodeRef {
	seen := map[id.ID]bool{n.self.ID: true, target: true}
	var all []NodeRef
	for _, e := range n.rt.Entries() {
		if !seen[e.ID] {
			seen[e.ID] = true
			all = append(all, e)
		}
	}
	for _, e := range n.ls.Members() {
		if !seen[e.ID] {
			seen[e.ID] = true
			all = append(all, e)
		}
	}
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		minIdx := i
		for j := i + 1; j < len(all); j++ {
			if id.CloserToKey(target, all[j].ID, all[minIdx].ID) {
				minIdx = j
			}
		}
		all[i], all[minIdx] = all[minIdx], all[i]
	}
	return all[:k]
}

// refScanTargets is the target list scanRoutingTable used to build: the
// table, then the leaf members it lacks, each id once.
func refScanTargets(n *Node) []NodeRef {
	scanned := make(map[id.ID]bool)
	targets := n.rt.Entries()
	for _, m := range n.ls.Members() {
		if !n.rt.Contains(m.ID) {
			targets = append(targets, m)
		}
	}
	var out []NodeRef
	for _, e := range targets {
		if !scanned[e.ID] {
			scanned[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

// refFailedList is failedList as it was.
func refFailedList(n *Node) []NodeRef {
	out := make([]NodeRef, 0, len(n.failed))
	for _, ref := range n.failed {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Cmp(out[j].ID) < 0 })
	return out
}

// refRepairCandidates is handleRepairRequest's candidate list as it was
// built: every match from a copy of the whole table, cut to four.
func refRepairCandidates(n *Node, req *RepairRequest) []NodeRef {
	matches := func(x id.ID) bool {
		return id.CommonPrefixLen(x, req.From.ID, n.cfg.B) >= req.Row &&
			x.Digit(req.Row, n.cfg.B) == req.Col
	}
	var out []NodeRef
	if matches(n.self.ID) {
		out = append(out, n.self)
	}
	for _, e := range n.rt.Entries() {
		if matches(e.ID) {
			out = append(out, e)
		}
	}
	for _, e := range n.ls.Members() {
		if matches(e.ID) {
			out = append(out, e)
		}
	}
	if len(out) > 4 {
		out = out[:4]
	}
	return out
}

// randomRoutingState builds a node whose table and leaf set were both
// offered the same pool of ids, so some ids sit in both, some in one, and —
// for pools smaller than the leaf set — the leaf set's two sides overlap.
// Every other pool clusters around the node's own id: its leaf members
// then contend for the same deep table slots, and the losers are leaf
// members the table lacks.
func randomRoutingState(t *testing.T, rng *rand.Rand) (*testNet, *Node, []NodeRef) {
	t.Helper()
	net := newTestNet(t, 1)
	n := net.addNode(id.Random(rng), testConfig(), nil)
	size := rng.Intn(120)
	if rng.Intn(4) == 0 {
		size = rng.Intn(6)
	}
	clustered := rng.Intn(2) == 0
	pool := make([]NodeRef, size)
	for i := range pool {
		x := id.Random(rng)
		if clustered && i%2 == 0 {
			x = id.New(n.self.ID.Hi, rng.Uint64())
		}
		pool[i] = NodeRef{ID: x, Addr: "p" + x.String()}
		n.rt.Add(pool[i])
		n.ls.Add(pool[i])
	}
	return net, n, pool
}

// TestNearestKnownIsCloserToKeyOrder holds nearestKnown to the definition
// of its order — everything the node knows, sorted by id.CloserToKey — on
// routing state built in diametrically placed pairs around the target
// (target+d and target-d are equally far from it; the clockwise one ranks
// first), plus the antipode target+Half. Pairs with a small d sit in the
// leaf set around a target near the node, so ties reach the head of the
// list; pairs with a random d land in the table.
func TestNearestKnownIsCloserToKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := testConfig()
	cfg.L = 32
	headTies, ties := 0, 0
	for trial := 0; trial < 200; trial++ {
		net := newTestNet(t, 1)
		n := net.addNode(id.Random(rng), cfg, nil)
		target := n.self.ID.Add(id.New(0, rng.Uint64()>>40))
		switch trial % 4 {
		case 1:
			target = n.self.ID // the pairs straddle the node
		case 2:
			target = id.Random(rng)
		}
		add := func(x id.ID) {
			r := NodeRef{ID: x, Addr: "p" + x.String()}
			n.rt.Add(r)
			n.ls.Add(r)
		}
		add(target.Add(id.Half))
		for i := 0; i < 30; i++ {
			d := id.New(0, rng.Uint64()>>40)
			if i%2 == 1 {
				d = id.Random(rng)
			}
			add(target.Add(d))
			add(target.Sub(d))
		}
		seen := map[id.ID]bool{n.self.ID: true, target: true}
		var all []NodeRef
		for _, e := range append(n.rt.Entries(), n.ls.Members()...) {
			if !seen[e.ID] {
				seen[e.ID] = true
				all = append(all, e)
			}
		}
		sort.Slice(all, func(i, j int) bool { return id.CloserToKey(target, all[i].ID, all[j].ID) })
		for i := 1; i < len(all); i++ {
			if target.Distance(all[i-1].ID) == target.Distance(all[i].ID) {
				ties++
				if i <= cfg.L {
					headTies++
				}
			}
		}
		for _, k := range []int{1, 2, cfg.L + 1, len(all), len(all) + 3} {
			want := all[:min(k, len(all))]
			if got := n.nearestKnown(target, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d target %v k=%d:\n got %v\nwant %v", trial, target, k, got, want)
			}
		}
	}
	if headTies == 0 || ties == headTies {
		t.Fatalf("%d tied neighbours, %d of them in the first %d: ties must occur in and past the head", ties, headTies, cfg.L+1)
	}
}

func TestNearestKnownMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var inBoth, leafOnly int
	for trial := 0; trial < 300; trial++ {
		_, n, pool := randomRoutingState(t, rng)
		for _, m := range n.ls.Members() {
			if n.rt.Contains(m.ID) {
				inBoth++
			} else {
				leafOnly++
			}
		}
		targets := []id.ID{id.Random(rng), n.self.ID}
		for _, m := range n.ls.Members() { // in the leaf set, many in the table too
			targets = append(targets, m.ID)
		}
		for i := 0; i < 8 && len(pool) > 0; i++ { // in the table, or known to neither
			targets = append(targets, pool[rng.Intn(len(pool))].ID)
		}
		for _, target := range targets {
			for _, k := range []int{1, n.cfg.L + 1, len(pool) + 3} {
				want := refNearestKnown(n, target, k)
				got := n.nearestKnown(target, k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d target %v k=%d:\n got %v\nwant %v", trial, target, k, got, want)
				}
				// The result travels in a reply; the next call must not
				// reach it through the scratch slice.
				n.nearestKnown(id.Random(rng), k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: a later call rewrote an earlier result", trial)
				}
			}
		}
	}
	if inBoth == 0 || leafOnly == 0 {
		t.Fatalf("leaf members in the table too: %d, in the leaf set only: %d — both cases must occur", inBoth, leafOnly)
	}
}

// The scan's target order is observable as the order its probes leave.
func TestScanRoutingTableProbesInReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		net, n, _ := randomRoutingState(t, rng)
		var probed []NodeRef
		net.drop = func(_, to NodeRef, m Message) bool {
			if _, ok := m.(*RTProbe); ok {
				probed = append(probed, to)
			}
			return true
		}
		want := refScanTargets(n)
		n.scanRoutingTable(time.Second) // first sight starts every target's clock
		if len(probed) != 0 {
			t.Fatalf("trial %d: %d probes on first sight", trial, len(probed))
		}
		n.scanRoutingTable(time.Second + 2*n.trtCurrent)
		if !slices.Equal(probed, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, probed, want)
		}
	}
}

// The repair reply's bytes are what the requester's table is filled from:
// the same candidates in the same order, or no reply where there was none.
func TestRepairReplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var none, short, cut int
	for trial := 0; trial < 300; trial++ {
		net, n, pool := randomRoutingState(t, rng)
		var replies []Message
		net.drop = func(_, _ NodeRef, m Message) bool {
			replies = append(replies, m)
			return true
		}
		for i := 0; i < 20; i++ {
			// Requesters near the node ask about its deep rows, where the
			// node itself and its leaf set match; far ones about row 0.
			from := NodeRef{ID: id.Random(rng), Addr: "requester"}
			if len(pool) > 0 && i%2 == 0 {
				from.ID = id.New(n.self.ID.Hi, rng.Uint64())
			}
			row := rng.Intn(1 + id.CommonPrefixLen(from.ID, n.self.ID, n.cfg.B))
			if row >= n.rt.NumRows() {
				row = n.rt.NumRows() - 1
			}
			req := &RepairRequest{From: from, Row: row, Col: rng.Intn(1 << n.cfg.B)}
			want := refRepairCandidates(n, req)
			replies = replies[:0]
			n.handleRepairRequest(req)
			switch {
			case len(want) == 0:
				none++
				if len(replies) != 0 {
					t.Fatalf("trial %d: a reply with no candidate: %+v", trial, replies[0])
				}
				continue
			case len(want) < 4:
				short++
			default:
				cut++
			}
			if len(replies) != 1 {
				t.Fatalf("trial %d: %d replies, want 1", trial, len(replies))
			}
			wantMsg := &RepairReply{From: n.self, Row: req.Row, Col: req.Col, Entries: want}
			if got, want := encodeMessage(replies[0]), encodeMessage(wantMsg); !slices.Equal(got, want) {
				t.Fatalf("trial %d: reply %+v, want %+v", trial, replies[0], wantMsg)
			}
		}
	}
	if none == 0 || short == 0 || cut == 0 {
		t.Fatalf("no candidate %d times, fewer than four %d, cut to four %d — all three must occur", none, short, cut)
	}
}

// TestFailedListMatchesReference: failedList agrees with a sort of the
// failure map after every write, and its snapshot is shared until the
// next write: a list read before a change keeps what it held, and a read
// after the change sees the change.
func TestFailedListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := newTestNode(t, id.Random(rng))
	if got := n.failedList(); got != nil {
		t.Fatalf("nothing failed: got %v, want nil", got)
	}
	check := func(trial int, what string) []NodeRef {
		t.Helper()
		got, want := n.failedList(), refFailedList(n)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %s:\n got %v\nwant %v", trial, what, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("trial %d, %s: the snapshot's capacity %d exceeds its length %d", trial, what, cap(got), len(got))
		}
		return got
	}
	for trial := 0; trial < 200; trial++ {
		n.clearFailed()
		for i, size := 0, 1+rng.Intn(40); i < size; i++ {
			// Ids that differ in the low word only, as well as spread ones.
			x := id.New(uint64(rng.Intn(4)), rng.Uint64())
			n.setFailed(NodeRef{ID: x, Addr: "f" + x.String()})
		}
		before := check(trial, "built")
		kept := slices.Clone(before)
		if again := n.failedList(); &again[0] != &before[0] {
			t.Fatalf("trial %d: a second read with no change built a new list", trial)
		}

		// Read, mutate, read again: an added record, a lifted one and a
		// re-recorded address each show in the next read and leave the
		// list read before them as it was.
		x := id.New(uint64(rng.Intn(4)), rng.Uint64())
		n.setFailed(NodeRef{ID: x, Addr: "new"})
		check(trial, "after an add")
		victim := before[rng.Intn(len(before))]
		if !n.unsetFailed(victim.ID) || n.unsetFailed(victim.ID) {
			t.Fatalf("trial %d: unsetFailed of a record, then of it again, must report true, then false", trial)
		}
		check(trial, "after a lift")
		n.setFailed(NodeRef{ID: x, Addr: "moved"})
		check(trial, "after a new address")
		if !slices.Equal(before, kept) {
			t.Fatalf("trial %d: a write changed a list read before it", trial)
		}
	}
	n.clearFailed()
	if got := n.failedList(); got != nil {
		t.Fatalf("cleared: got %v, want nil", got)
	}
}

// TestMaintenanceAllocations pins the per-probe budget: answering a repair
// probe allocates the reply's candidate list and nothing else, a node
// with no failure records builds no failed list, and one whose records
// have not changed since its last list sends that list again.
func TestMaintenanceAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := newTestNet(t, 1)
	n := net.addNode(id.Random(rng), testConfig(), nil)
	for i := 0; i < 200; i++ {
		ref := NodeRef{ID: id.Random(rng), Addr: "p"}
		n.rt.Add(ref)
		n.ls.Add(ref)
	}
	target := id.Random(rng)
	n.nearestKnown(target, n.cfg.L+1) // grows the scratch slice once
	full := net.addNode(id.Random(rng), testConfig(), nil)
	for i := 0; i < 8; i++ {
		full.setFailed(NodeRef{ID: id.Random(rng), Addr: "f"})
	}
	for name, pin := range map[string]struct {
		max float64
		f   func()
	}{
		"nearestKnown":     {1, func() { n.nearestKnown(target, n.cfg.L+1) }},
		"failedList/empty": {0, func() { n.failedList() }},
		"failedList/built": {0, func() { full.failedList() }},
		"monitoredNodes":   {0, func() { n.monitoredNodes() }},
	} {
		pin.f()
		if got := testing.AllocsPerRun(100, pin.f); got > pin.max {
			t.Errorf("%s: %v allocs per call, want at most %v", name, got, pin.max)
		}
	}
}
