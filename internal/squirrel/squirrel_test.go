package squirrel

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/hotspot"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
)

// simCluster is a small simulated overlay with a Squirrel proxy per node.
type simCluster struct {
	sim     *eventsim.Simulator
	nw      *netmodel.Network
	proxies []*Proxy
	fetches int
}

func newCluster(t *testing.T, n int, seed int64) *simCluster {
	t.Helper()
	sim := eventsim.New(seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30}, rand.New(rand.NewSource(seed)))
	nw := netmodel.New(sim, topo, 0)
	c := &simCluster{sim: sim, nw: nw}
	origin := OriginFunc(func(url string) ([]byte, error) {
		c.fetches++
		return []byte("body-of-" + url), nil
	})
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.PNS = false
	nw.NewCluster(n, cfg, 5*time.Second, func(_ int, node *pastry.Node, _ *netmodel.Endpoint) {
		c.proxies = append(c.proxies, New(node, origin))
	})
	sim.RunUntil(sim.Now() + time.Minute)
	for i, p := range c.proxies {
		if !p.Node().Active() {
			t.Fatalf("node %d not active", i)
		}
	}
	return c
}

func (c *simCluster) settle(d time.Duration) { c.sim.RunUntil(c.sim.Now() + d) }

func TestFirstRequestMissesThenRemoteHit(t *testing.T) {
	c := newCluster(t, 12, 1)
	var outcomes []Outcome
	record := func(body []byte, o Outcome) {
		if o != Failed && string(body) != "body-of-http://x.test/a" {
			t.Fatalf("wrong body %q", body)
		}
		outcomes = append(outcomes, o)
	}
	// First request from proxy 3: must go to the origin.
	c.proxies[3].Get("http://x.test/a", record)
	c.settle(10 * time.Second)
	// Second request from a different proxy: the home node has it now.
	c.proxies[7].Get("http://x.test/a", record)
	c.settle(10 * time.Second)
	// Third request from the same proxy: local cache.
	c.proxies[7].Get("http://x.test/a", record)
	c.settle(time.Second)
	want := []Outcome{MissOrigin, HitRemote, HitLocal}
	if len(outcomes) != len(want) {
		t.Fatalf("outcomes = %v, want %v", outcomes, want)
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("outcomes = %v, want %v", outcomes, want)
		}
	}
	if c.fetches != 1 {
		t.Fatalf("origin fetches = %d, want 1", c.fetches)
	}
}

func TestEveryURLHasOneHomeFetch(t *testing.T) {
	c := newCluster(t, 10, 2)
	rng := rand.New(rand.NewSource(7))
	const urls = 30
	done := 0
	for i := 0; i < urls; i++ {
		url := fmt.Sprintf("http://site%d.test/page", i)
		// Two requests per URL from random distinct proxies.
		for j := 0; j < 2; j++ {
			c.proxies[rng.Intn(len(c.proxies))].Get(url, func([]byte, Outcome) { done++ })
			c.settle(5 * time.Second)
		}
	}
	if done != urls*2 {
		t.Fatalf("completed %d of %d requests", done, urls*2)
	}
	// Each URL fetched from the origin at most... exactly once unless the
	// same proxy asked twice with a local hit; with distinct home nodes it
	// is exactly once per URL.
	if c.fetches != urls {
		t.Fatalf("origin fetches = %d, want %d (home-store dedup)", c.fetches, urls)
	}
}

func TestHomeNodeFailureRefetches(t *testing.T) {
	c := newCluster(t, 12, 3)
	url := "http://y.test/obj"
	key := id.FromKey(url)
	got := 0
	c.proxies[0].Get(url, func([]byte, Outcome) { got++ })
	c.settle(10 * time.Second)
	// Find and fail the home node.
	var home *Proxy
	for _, p := range c.proxies {
		if p.Stats().HomeFetches > 0 {
			home = p
			break
		}
	}
	if home == nil {
		t.Fatal("no home node recorded a fetch")
	}
	if ep, ok := c.nw.Endpoint(home.Node().Ref().Addr); ok {
		ep.Fail()
	}
	c.settle(3 * time.Minute) // let the overlay repair
	// The object must be re-fetchable through the new home node.
	c.proxies[5].Get(url, func(body []byte, o Outcome) {
		if o == Failed {
			t.Fatal("request failed after home node crash")
		}
		got++
	})
	c.settle(15 * time.Second)
	if got != 2 {
		t.Fatalf("completed %d of 2 requests", got)
	}
	if c.fetches != 2 {
		t.Fatalf("origin fetches = %d, want 2 (cache lost with home node)", c.fetches)
	}
	_ = key
}

func TestRequesterIsOwnHomeNode(t *testing.T) {
	c := newCluster(t, 6, 4)
	// Find a URL whose home node is proxy 0 by trying candidates.
	self := c.proxies[0].Node().Ref().ID
	var url string
	for i := 0; ; i++ {
		candidate := fmt.Sprintf("http://self.test/%d", i)
		key := id.FromKey(candidate)
		best := 0
		for j, p := range c.proxies {
			if id.CloserToKey(key, p.Node().Ref().ID, c.proxies[best].Node().Ref().ID) {
				best = j
			}
		}
		if c.proxies[best].Node().Ref().ID == self {
			url = candidate
			break
		}
		if i > 10000 {
			t.Fatal("no self-homed URL found")
		}
	}
	outcome := Outcome(0)
	c.proxies[0].Get(url, func(_ []byte, o Outcome) { outcome = o })
	c.settle(5 * time.Second)
	if outcome != MissOrigin {
		t.Fatalf("self-homed request outcome = %v, want miss-origin", outcome)
	}
	c.proxies[0].Get(url, func(_ []byte, o Outcome) { outcome = o })
	c.settle(5 * time.Second)
	if outcome != HitLocal && outcome != HitRemote {
		t.Fatalf("second self-homed request = %v, want a hit", outcome)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newBodyCache(3)
	keys := make([]id.ID, 5)
	for i := range keys {
		keys[i] = id.New(0, uint64(i+1))
		c.Put(hotspot.Entry{Key: keys[i], Value: []byte{byte(i)}})
	}
	if c.Len() != 3 {
		t.Fatalf("lru len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(keys[4]); !ok {
		t.Fatal("newest entry missing")
	}
	// Touch key 2 then insert: key 3 should be the eviction victim.
	c.Get(keys[2])
	c.Put(hotspot.Entry{Key: id.New(0, 99)})
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(keys[3]); ok {
		t.Fatal("LRU order not respected")
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	var req request
	if !decode(encode(&request{42, []byte("http://example.test/path?q=1")}), &req) ||
		req.reqID != 42 || string(req.url) != "http://example.test/path?q=1" {
		t.Fatalf("request round trip: %v %q", req.reqID, req.url)
	}
	var resp response
	if !decode(encode(&response{42, byte(HitRemote), []byte("hello")}), &resp) ||
		resp.reqID != 42 || string(resp.body) != "hello" || Outcome(resp.outcome) != HitRemote {
		t.Fatalf("response round trip: %v %q %v", resp.reqID, resp.body, resp.outcome)
	}
	if decode([]byte{9, 9}, &request{}) {
		t.Fatal("garbage request accepted")
	}
	if decode([]byte{}, &response{}) {
		t.Fatal("garbage response accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	c := newCluster(t, 8, 5)
	c.proxies[1].Get("http://stats.test/x", func([]byte, Outcome) {})
	c.settle(10 * time.Second)
	s := c.proxies[1].Stats()
	if s.Requests != 1 {
		t.Fatalf("requests = %d", s.Requests)
	}
	total := s.LocalHits + s.RemoteHits + s.OriginMiss + s.Failures
	if total != 1 {
		t.Fatalf("outcome counters = %d, want 1", total)
	}
}
