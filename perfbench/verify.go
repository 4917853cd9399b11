package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"kard/internal/harness"
	"kard/internal/service"
	"kard/internal/workload"
)

// reference.json records, for a few seeds of each workload, the SHA-256
// of the serial-oracle verdicts of the workload's cells in spec order,
// keyed "<seed>/<distinct cells>" (the open loop's cell count grows with
// --seconds). A change that moves any simulated result (a verdict, an
// ExecTime, an op count) breaks the match; a change meant only to speed
// up the host must not.
//
//go:embed reference.json
var referenceJSON []byte

// cellRef is one distinct cell a workload ran.
type cellRef struct {
	spec harness.Spec
}

// verdictLog collects the canonical verdict bytes (the JSON of
// service.NewCellVerdict, which the service journals and compares) of
// every cell a phase completed, keyed by cell label.
type verdictLog struct {
	mu   sync.Mutex
	seen map[string]map[string]int // label → verdict bytes → occurrences
}

func newVerdictLog() *verdictLog {
	return &verdictLog{seen: map[string]map[string]int{}}
}

func (vl *verdictLog) add(v *service.CellVerdict) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	vl.mu.Lock()
	defer vl.mu.Unlock()
	m := vl.seen[v.Label]
	if m == nil {
		m = map[string]int{}
		vl.seen[v.Label] = m
	}
	m[string(b)]++
	return nil
}

// simStats are the simulated statistics of a workload's distinct cells,
// taken from the oracle run.
type simStats struct {
	cells         int
	overheadErr   float64 // pp, mean |simulated − paper| Kard overhead
	overheadCells int
	execGcycles   float64
	dtlbMissRate  float64
}

// check re-runs every distinct cell the phases ran with the serial
// exec-mode oracle and compares the verdicts. Each completed cell whose
// verdict differs from the oracle's, and each Kard cell whose distinct
// racy objects differ from its model's known races, counts as failed.
// The oracle verdicts, in spec order, must also hash to the recorded
// reference when reference.json has one for this workload and seed.
func (b *bench) check(wl runner, vl *verdictLog, rep *report) (simStats, error) {
	refs := wl.cells()
	specs := make([]harness.Spec, 0, 2*len(refs))
	for _, r := range refs {
		s := r.spec
		s.ExecMode = "serial"
		specs = append(specs, s)
	}
	// Overheads need each Kard cell's Baseline twin.
	baseIdx := map[string]int{}
	for i, s := range specs {
		if s.Mode == harness.ModeBaseline {
			baseIdx[twinKey(s)] = i
		}
	}
	for _, r := range refs {
		s := r.spec
		if _, ok := paperOverhead(s); !ok {
			continue
		}
		if _, ok := baseIdx[twinKey(s)]; ok {
			continue
		}
		base := harness.Spec{Options: harness.Options{Workload: s.Workload, Mode: harness.ModeBaseline,
			Threads: s.Threads, Scale: s.Scale, Seed: s.Seed, ExecMode: "serial"}}
		baseIdx[twinKey(s)] = len(specs)
		specs = append(specs, base)
	}
	rs := harness.RunMatrixContext(b.ctx, specs, harness.MatrixOptions{Jobs: b.nproc})

	var st simStats
	var tlbMisses, accessUnits uint64
	var errSum float64
	completed := 0 // cells the phases completed, all verdicts counted
	h := sha256.New()
	vl.mu.Lock()
	defer vl.mu.Unlock()
	for i, ref := range refs {
		r := rs[i]
		label := ref.spec.Label()
		seen := vl.seen[label]
		delete(vl.seen, label)
		occurrences := 0
		for _, n := range seen {
			occurrences += n
		}
		completed += occurrences
		if r.Err != nil {
			rep.fail("oracle cell %s: %v", label, r.Err)
			rep.failed += occurrences
			continue
		}
		want, err := json.Marshal(service.NewCellVerdict(ref.spec, r.Result))
		if err != nil {
			return st, err
		}
		h.Write(want)
		for got, n := range seen {
			if got != string(want) {
				rep.failed += n
				rep.fail("cell %s: %d verdicts differ from the serial oracle", label, n)
			}
		}
		if ref.spec.Mode == harness.ModeKard {
			known := r.Result.Spec.KnownRaces
			if got := harness.DistinctRacyObjects(r.Result); got != known {
				rep.failed += occurrences
				rep.fail("cell %s: Kard reports %d distinct racy objects, the model knows %d", label, got, known)
			}
		}
		st.cells++
		st.execGcycles += float64(r.Result.Stats.ExecTime) / 1e9
		tlbMisses += r.Result.Stats.TLBMisses
		accessUnits += r.Result.Stats.AccessUnits
		if paper, ok := paperOverhead(ref.spec); ok {
			base := rs[baseIdx[twinKey(ref.spec)]]
			if base.Err != nil {
				rep.fail("oracle baseline of %s: %v", label, base.Err)
				continue
			}
			errSum += math.Abs(harness.OverheadPct(base.Result, r.Result) - paper)
			st.overheadCells++
		}
	}
	for label, seen := range vl.seen {
		for _, n := range seen {
			rep.failed += n
		}
		rep.fail("cell %s completed but is not among the workload's cells", label)
	}
	vl.seen = map[string]map[string]int{}
	if accessUnits > 0 {
		st.dtlbMissRate = float64(tlbMisses) / float64(accessUnits)
	}
	if st.overheadCells > 0 {
		st.overheadErr = errSum / float64(st.overheadCells)
	}

	sum := hex.EncodeToString(h.Sum(nil))
	fmt.Fprintf(b.log, "oracle: %d distinct cells, verdict sha256 %s\n", len(refs), sum)
	var recorded map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &recorded); err != nil {
		return st, fmt.Errorf("reference.json: %w", err)
	}
	key := fmt.Sprintf("%d/%d", b.seed, len(refs))
	if want, ok := recorded[b.workload][key]; ok && want != sum {
		// The oracle itself moved, so no verdict of the run is vouched
		// for.
		rep.failed += completed
		rep.fail("oracle verdicts hash to %s, reference.json records %s for %s", sum, want, key)
	}
	return st, nil
}

// twinKey identifies a cell up to its mode.
func twinKey(s harness.Spec) string {
	return fmt.Sprintf("%s/t%d/x%g/s%d", s.Workload, s.Threads, s.Scale, s.Seed)
}

// paperOverhead returns Table 3's Kard overhead for a Kard cell of one
// of the paper's applications.
func paperOverhead(s harness.Spec) (float64, bool) {
	if s.Mode != harness.ModeKard {
		return 0, false
	}
	w, err := workload.New(s.Workload)
	if err != nil || w.Spec().Suite == "corpus" {
		return 0, false
	}
	return w.Spec().PaperKardPct, true
}
