package pastry

import (
	"slices"
	"testing"
	"time"
)

// fullNode is an active node at 1000 with a full leaf set (L = 8):
// 990, 980, 970, 960 on the left and 1010, 1020, 1030, 1040 on the right.
// Every send is recorded and goes nowhere: the test plays the peers.
func fullNode(t *testing.T, obs Observer) (net *testNet, n *Node, sent *[]Message) {
	t.Helper()
	net, n, sent = hopNode(t, testConfig(), obs)
	n.ls.Remove(ref(900).ID)
	n.ls.Remove(ref(1100).ID)
	for _, x := range []uint64{990, 980, 970, 960, 1010, 1020, 1030, 1040} {
		n.ls.Add(ref(x))
	}
	if len(n.ls.Left()) != 4 || len(n.ls.Right()) != 4 || n.ls.Wrapped() {
		t.Fatalf("leaf set %v | %v is not full", n.ls.Left(), n.ls.Right())
	}
	return net, n, sent
}

// probedTargets lists, in send order, the targets of the leaf-set probes
// the node sent: the test Env's drop hook sees the destination.
type probedTargets struct{ to []uint64 }

func recordLeafProbes(net *testNet, sent *[]Message) *probedTargets {
	pt := &probedTargets{}
	net.drop = func(_, to NodeRef, m Message) bool {
		*sent = append(*sent, m)
		if _, ok := m.(*LSProbe); ok {
			pt.to = append(pt.to, to.ID.Lo)
		}
		return true
	}
	return pt
}

func (pt *probedTargets) since(i int) []uint64 { return slices.Clone(pt.to[i:]) }

// A leaf set naming more closer candidates than a side has places makes
// the node probe only as many as there are places; the rest wait. A
// candidate whose first probe times out hands its place to the next one at
// once, though its probe goes on to its verdict, and a place the replies
// filled turns the rest away.
func TestCandidatesUnderProbeHoldTheirPlaces(t *testing.T) {
	net, n, sent := fullNode(t, nil)
	pt := recordLeafProbes(net, sent)
	cands := []NodeRef{ref(1001), ref(1002), ref(1003), ref(1004), ref(1005), ref(1006)}
	n.Receive(&LSProbe{From: ref(1010), Leaves: cands})
	if got, want := pt.since(0), []uint64{1001, 1002, 1003, 1004}; !slices.Equal(got, want) {
		t.Fatalf("probed %v, want %v: four places on the right, four candidates", got, want)
	}
	if !slices.Equal(n.deferred, cands[4:]) {
		t.Fatalf("deferred %v, want %v", n.deferred, cands[4:])
	}
	checkRecords(t, n)

	// 1002..1004 answer and enter; 1001 stays silent and holds its place.
	net.run(time.Millisecond)
	for _, c := range cands[1:4] {
		n.Receive(&LSProbeReply{From: c})
	}
	if right := n.ls.Right(); right[0] != ref(1002) || right[3] != ref(1010) {
		t.Fatalf("right side %v, want 1002 1003 1004 1010", right)
	}
	if got := pt.since(4); len(got) != 0 {
		t.Fatalf("probed %v while 1001's probe held the last place", got)
	}
	checkRecords(t, n)

	// 1001's first probe times out: its place goes to 1005, the next
	// candidate, and 1006 still waits behind 1005. 1001 is probed again.
	net.run(n.cfg.To)
	if got, want := pt.since(4), []uint64{1005, 1001}; !slices.Equal(got, want) {
		t.Fatalf("after 1001's first timeout the node probed %v, want %v", got, want)
	}
	if _, probing := n.probing[ref(1001).ID]; !probing || len(n.candidates) != 1 {
		t.Fatalf("1001 under probe: %v; %d places held, want 1005's alone", probing, len(n.candidates))
	}
	if !slices.Equal(n.deferred, cands[5:]) {
		t.Fatalf("deferred %v, want 1006 alone", n.deferred)
	}
	checkRecords(t, n)

	// 1005 answers and takes the last place: the members alone keep 1006
	// out now, so it is dropped, not probed. 1001's probe runs out.
	n.Receive(&LSProbeReply{From: ref(1005)})
	if !n.ls.Contains(ref(1005).ID) || len(n.deferred) != 0 {
		t.Fatalf("after 1005 entered: deferred %v", n.deferred)
	}
	net.run(time.Duration(maxProbeRetries) * n.cfg.To)
	if _, probing := n.probing[ref(1001).ID]; probing || n.ls.Contains(ref(1001).ID) {
		t.Fatal("1001's probe did not run out")
	}
	if slices.Contains(pt.to, 1006) {
		t.Fatalf("probed %v, want no probe of 1006", pt.since(4))
	}
	if c := n.Stats(); c.SentCandidateProbes != 5 || c.UnusedCandidateReplies != 0 {
		t.Fatalf("counters %+v, want 5 candidate probes and no unused reply", c)
	}
	checkRecords(t, n)
}

// A short side admits candidates by the same rule as a full one: a side
// short by k free places probes exactly k candidates beyond its farthest
// member, and the rest wait. The confirmation probe of a member a peer's
// Failed list removed holds that member's place until its first timeout.
func TestCandidatesOnAShortSideFillItsFreePlaces(t *testing.T) {
	net, n, sent := fullNode(t, nil)
	n.markFaulty(ref(1030), false)
	n.markFaulty(ref(1040), false)
	pt := recordLeafProbes(net, sent)
	cands := []NodeRef{ref(1050), ref(1060), ref(1070), ref(1080)}
	n.Receive(&LSProbe{From: ref(1010), Leaves: cands, Failed: []NodeRef{ref(1020)}})
	if got, want := pt.since(0), []uint64{1020, 1050, 1060}; !slices.Equal(got, want) {
		t.Fatalf("probed %v with the right side short by three, want %v: 1020's confirmation and two candidates", got, want)
	}
	if !slices.Equal(n.deferred, cands[2:]) {
		t.Fatalf("deferred %v, want %v", n.deferred, cands[2:])
	}
	checkRecords(t, n)

	// 1050 and 1060 enter; 1020's confirmation still holds the last place.
	net.run(time.Millisecond)
	n.Receive(&LSProbeReply{From: ref(1050)})
	n.Receive(&LSProbeReply{From: ref(1060)})
	if got := pt.since(3); len(got) != 0 {
		t.Fatalf("probed %v while 1020's confirmation held the last place", got)
	}
	// Its first timeout hands the place to 1070.
	net.run(n.cfg.To)
	if got, want := pt.since(3), []uint64{1070, 1020}; !slices.Equal(got, want) {
		t.Fatalf("after 1020's first timeout the node probed %v, want %v", got, want)
	}
	if !slices.Equal(n.deferred, cands[3:]) {
		t.Fatalf("deferred %v, want 1080 alone", n.deferred)
	}
	checkRecords(t, n)
}

// A candidate's place counts only the candidates closer than it, in the
// order they arrive: a farther one probed first keeps its probe, and its
// reply, once closer ones filled the side, inserts nothing.
func TestUnusedCandidateReplyIsCounted(t *testing.T) {
	net, n, sent := fullNode(t, nil)
	pt := recordLeafProbes(net, sent)
	n.Receive(&LSProbe{From: ref(1010), Leaves: []NodeRef{ref(1005)}})
	n.Receive(&LSProbe{From: ref(1020), Leaves: []NodeRef{ref(1001), ref(1002), ref(1003), ref(1004)}})
	if got := pt.since(0); len(got) != 5 {
		t.Fatalf("probed %v, want 1005 and then the four closer candidates", got)
	}
	net.run(time.Millisecond)
	for _, x := range []uint64{1001, 1002, 1003, 1004, 1005} {
		n.Receive(&LSProbeReply{From: ref(x)})
	}
	if n.ls.Contains(ref(1005).ID) {
		t.Fatal("1005 entered a side four closer nodes filled")
	}
	if c := n.Stats(); c.SentCandidateProbes != 5 || c.UnusedCandidateReplies != 1 {
		t.Fatalf("counters %+v, want 5 candidate probes and 1 unused reply", c)
	}
	checkRecords(t, n)
}

// A peer's Failed list removes a member before this node's own probe
// confirms it. When the member was the right neighbour — the node whose
// heartbeats this node watched — the confirm probe's timeout is announced
// however that probe began; any other member's is not, so hearsay starts
// no announcement storm.
func TestRightNeighbourRemovedOnHearsayIsAnnounced(t *testing.T) {
	for _, tc := range []struct {
		name     string
		gone     uint64
		pingedAt bool // a routing-table ping of gone is in flight already
		announce int
	}{
		{"right neighbour", 1010, false, 1},
		{"right neighbour under a ping", 1010, true, 1},
		{"other member", 1020, false, 0},
		{"left neighbour", 990, false, 0},
	} {
		obs := &repairCauses{causes: map[string]int{}}
		net, n, sent := fullNode(t, obs)
		pt := recordLeafProbes(net, sent)
		if tc.pingedAt {
			n.probe(ref(tc.gone), false, false)
		}
		n.Receive(&LSProbe{From: ref(980), Failed: []NodeRef{ref(tc.gone)}})
		if n.ls.Contains(ref(tc.gone).ID) {
			t.Fatalf("%s: %d stayed a member on hearsay", tc.name, tc.gone)
		}
		probed := len(pt.to)
		net.run(time.Duration(maxProbeRetries+1) * n.cfg.To)
		if !n.isFailed(ref(tc.gone).ID) {
			t.Fatalf("%s: the confirm probe did not time out", tc.name)
		}
		if got := obs.causes["announce"]; got != tc.announce {
			t.Fatalf("%s: %d announcements, want %d", tc.name, got, tc.announce)
		}
		if tc.announce == 0 {
			continue
		}
		announced := pt.since(probed)
		for _, m := range n.ls.Members() {
			if !slices.Contains(announced, m.ID.Lo) {
				t.Fatalf("%s: the announcement probed %v, not member %d", tc.name, announced, m.ID.Lo)
			}
		}
		checkRecords(t, n)
	}
}

// An announcement reaches every member, one whose leaf probe was already
// in flight included: that probe left before the failure, so the member
// gets a second one whose Failed list names the dead node.
func TestAnnouncementReachesAMemberUnderProbe(t *testing.T) {
	net, n, _ := fullNode(t, nil)
	failedTo := map[uint64][][]NodeRef{}
	net.drop = func(_, to NodeRef, m Message) bool {
		if p, ok := m.(*LSProbe); ok {
			failedTo[to.ID.Lo] = append(failedTo[to.ID.Lo], p.Failed)
		}
		return true
	}
	n.probeLeaf(ref(1020))
	n.markFaulty(ref(1010), true)
	for _, m := range n.ls.Members() {
		got := failedTo[m.ID.Lo]
		if len(got) == 0 || !slices.Contains(got[len(got)-1], ref(1010)) {
			t.Fatalf("member %d was sent Failed lists %v, want the last to name 1010", m.ID.Lo, got)
		}
	}
	if got := failedTo[1020]; len(got) != 2 {
		t.Fatalf("1020 was sent %d leaf probes, want its first and the announcement", len(got))
	}
	checkRecords(t, n)
}
