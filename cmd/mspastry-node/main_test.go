package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a stdout the node's event loop and command loop may both
// write to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A rejected command line exits 2 with its message before a socket is
// opened: nothing, in particular no "node up" line, reaches stdout.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"", "need -bootstrap, or -seed-addr and -seed-id"},
		{"-seed-addr 127.0.0.1:7001", "need -bootstrap, or -seed-addr and -seed-id"},
		{"-seed-addr 127.0.0.1:7001 -seed-id xyz", "-seed-id: "},
		{"-bootstrap -id 12", "-id: "},
		{"-bootstrap -inbound-queue -1", "-inbound-queue must be >= 0"},
		{"-bootstrap -cache-entries -1", "-cache-entries must be >= 0"},
		{"-bootstrap -status 1s", "flag provided but not defined: -status"},
		{"-bootstrap -coalesce 0", "flag provided but not defined: -coalesce"},
	} {
		var stdout syncBuffer
		var stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), strings.NewReader("quit\n"), &stdout, &stderr); code != 2 {
			t.Errorf("%q exited %d, want 2", tc.args, code)
		}
		if out := stdout.String(); out != "" {
			t.Errorf("%q printed before it was rejected:\n%s", tc.args, out)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// node runs one bootstrap node on an ephemeral port through a scripted
// stdin and returns what it printed.
func node(t *testing.T, args, script string) string {
	t.Helper()
	var stdout syncBuffer
	var stderr bytes.Buffer
	argv := append([]string{"-bootstrap", "-listen", "127.0.0.1:0"}, strings.Fields(args)...)
	if code := run(argv, strings.NewReader(script), &stdout, &stderr); code != 0 {
		t.Fatalf("%q exited %d: %s\n%s", args, code, stderr.String(), stdout.String())
	}
	return stdout.String()
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// The stdin interface end to end, then restart durability: a second run on
// the same -data-dir replays the write-ahead log and serves the value.
func TestCommandsAndRestartDurability(t *testing.T) {
	dir := t.TempDir()
	out := node(t, "-data-dir "+dir+" -admin 127.0.0.1:0",
		"put greeting hello world\nget greeting\nget nothing\nput onlykey\nbogus\n\nlookup greeting\nslookup greeting\nstatus\nquit\nget greeting\n")
	wantAll(t, out,
		"node up: addr=127.0.0.1:", "admin endpoint: http://127.0.0.1:", "bootstrapped a new overlay",
		`stored "greeting"`, "hello world\n", "get failed: dht: key not found", "usage: put <key> <value...>",
		"commands: put, get, del, lookup, slookup, status, quit", "lookup for ", "slookup needs -secure-routing",
		"status: active=true leaf=0 rt=0 ", "objects=1", "  dht: puts=1 gets=2 ", "  store: objects=1 tombstones=0 wal=",
		"leaving the overlay")
	if strings.Count(out, "hello world\n") != 1 {
		t.Errorf("a command after quit was served:\n%s", out)
	}
	if strings.Contains(out, "recovered ") {
		t.Errorf("first run on an empty directory claims a recovery:\n%s", out)
	}

	// EOF on stdin ends the second run as quit does.
	out = node(t, "-data-dir "+dir, "get greeting\ndel greeting\nget greeting\n")
	wantAll(t, out, "recovered 1 records from "+dir+" (1 live objects)", "hello world\n",
		`deleted "greeting"`, "get failed: dht: key not found")

	out = node(t, "-data-dir "+dir, "get greeting\nstatus\n")
	wantAll(t, out, "recovered 2 records from "+dir+" (0 live objects)", "get failed: dht: key not found", "tombstones=1")
}

// The subsystems a deployment turns on by flag: secure lookups, the
// hotspot read cache and the bounded inbound queue.
func TestOptionalSubsystems(t *testing.T) {
	out := node(t, "-secure-routing -cache-entries 64 -inbound-queue 128 -id 000102030405060708090a0b0c0d0e0f",
		"put k v\nget k\nget k\nslookup k\nstatus\nquit\n")
	wantAll(t, out, "id=000102030405060708090a0b0c0d0e0f", `stored "k"`, "v\n",
		"secure lookup for ", "status: active=true", "  overload: load=0.00 shed=0 panics=0 ")
}
