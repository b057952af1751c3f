// Command bench is the repository's benchmark: four workloads that cover
// the simulator and the live UDP path, end-to-end metrics measured as
// in-run medians of repeated equal-work repetitions, and per-layer metrics
// measured from outside the program (probes of public functions plus a
// traced run). README.md explains the workloads and how to read the output.
//
// The driver's contract is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints diagnostics and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Without
// --workload every workload runs in a fresh process of its own.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// result is what one run of one workload measured.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	// problems lists output-correctness violations; any makes the run
	// incorrect.
	problems []string
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workload is one of the four benchmark workloads. reps is the number of
// timed repetitions and setups how often set-up is performed and timed.
type workload interface {
	label() string
	// timedReps is how many timed repetitions fit into seconds of
	// measuring; each is a fixed amount of work.
	timedReps(seconds int) int
	// quick returns the workload at about a tenth of its size.
	quick() workload
	run(seed int64, reps, setups int) (result, error)
	traced(seed int64, reps int) (result, error)
}

// Fewest timed repetitions a run may be cut to: below these a median no
// longer averages out the ±8% noise of a single repetition.
const (
	minSimReps  = 5
	minLiveReps = 7
	setupTimes  = 5
)

func repsFor(seconds int, repSeconds float64, floor int) int {
	return max(floor, int(math.Round(float64(seconds)/repSeconds)))
}

var workloads = []struct {
	workload
	why string
}{
	{simLookup, "simulated static overlay at 1 lookup/s/node: routing, acks, netmodel delivery and the event engine do the work; maintenance little"},
	{simChurn, "simulated 15-min sessions at 0.01 lookup/s/node: joins, probes, repair and registry sweeps do the work; lookups under 1% of events"},
	{liveLookup, "real UDP on loopback, empty lookups, 2 closed-loop clients: per-datagram cost of wire codec, transport loops, syscalls; no simulator"},
	{liveKV, "same live overlay with dht get/put of 1 KiB values (80/20): dht codec, replication fan-out, store, byte-dependent wire cost"},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.label() == name {
			return w.workload, nil
		}
		names = append(names, w.label())
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all, each in a fresh process")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "time to spend in timed repetitions; sets their number, each is a fixed amount of work")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	quick := flag.Bool("quick", false, "one-tenth size, two repetitions: a smoke run, not a measurement")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two sets of end-to-end metrics against their bounds")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *name == "":
		_, err = runAll(*seed, *seconds, *trace, *quick)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *quick)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("output correctness checks failed")

// runOne measures one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds int, traced, quick bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Two Ps and the default collector pacing whatever the environment
	// says: the sizes and bounds were chosen under these.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	load, _ := os.ReadFile("/proc/loadavg")
	fmt.Printf("bench %s seed=%d seconds=%d trace=%t quick=%t GOMAXPROCS=2 GOGC=100 nproc=%d %s loadavg=%s\n",
		name, seed, seconds, traced, quick, runtime.NumCPU(), runtime.Version(), strings.TrimSpace(string(load)))

	reps, setups := w.timedReps(seconds), setupTimes
	if quick {
		w, reps, setups = w.quick(), 2, 2
	}
	var res result
	defs := endToEnd
	if traced {
		// A traced run repeats each of its variants (harness, driver,
		// traced driver; untraced and traced overlay) a third as often,
		// so that it takes about as long as a plain one.
		defs = perLayer
		res, err = w.traced(seed, max(2, reps/3))
	} else {
		res, err = w.run(seed, reps, setups)
	}
	if err != nil {
		return err
	}
	metrics, err := collect(defs, res.metrics, traced)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("metric %-32s %14.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	for _, p := range res.problems {
		fmt.Println("INCORRECT:", p)
	}
	fmt.Printf("ops: attempted=%d failed=%d\n", res.attempted, res.failed)
	line, err := json.Marshal(resultLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err // a NaN or infinite metric
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a fresh process, passing its output
// through, and returns its parsed result line.
func runChild(name string, seed int64, seconds, trace int, quick bool) (resultLine, error) {
	var rl resultLine
	self, err := os.Executable()
	if err != nil {
		return rl, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-quick="+strconv.FormatBool(quick))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rl, err
	}
	if err := cmd.Start(); err != nil {
		return rl, err
	}
	var last string
	rd := bufio.NewReader(out)
	for {
		line, err := rd.ReadString('\n')
		if line != "" {
			fmt.Print(line)
			last = line
		}
		if err != nil {
			if err != io.EOF {
				fmt.Fprintln(os.Stderr, "bench: reading child output:", err)
			}
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return rl, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := json.Unmarshal([]byte(last), &rl); err != nil {
		return rl, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	return rl, nil
}

// runAll runs every workload, each in a fresh process so that none
// inherits another's heap, and prints a closing table.
func runAll(seed int64, seconds, trace int, quick bool) (map[string]resultLine, error) {
	results := make(map[string]resultLine)
	for _, w := range workloads {
		rl, err := runChild(w.label(), seed, seconds, trace, quick)
		if err != nil {
			return nil, err
		}
		results[w.label()] = rl
		fmt.Println()
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("%-32s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.label())
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-32s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %14.4f", results[w.label()].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-39s", "attempted/failed")
	for _, w := range workloads {
		r := results[w.label()]
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", r.Attempted, r.Failed))
	}
	fmt.Println()
	return results, nil
}
