package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ovsxdp/internal/measure"
	"ovsxdp/internal/sim"
)

// Profile trades fidelity for wall-clock time: Full reproduces the paper's
// windows; Quick shortens them for tests and CI.
type Profile struct {
	// Name ("full", "quick") labels machine-readable results and selects
	// the shortened sweeps.
	Name       string
	Warmup     sim.Time
	Window     sim.Time
	SearchIter int
	RRCount    int

	// PerfStages opts into per-stage cycle attribution rows (the perf
	// layer's counters) in experiments that support them (fig9, table4).
	// Off by default so measured outputs stay byte-identical.
	PerfStages bool
}

// Full is the publication-quality profile.
var Full = Profile{Name: "full", Warmup: 6 * sim.Millisecond, Window: 30 * sim.Millisecond, SearchIter: 11, RRCount: 2000}

// Quick is the CI profile.
var Quick = Profile{Name: "quick", Warmup: 3 * sim.Millisecond, Window: 10 * sim.Millisecond, SearchIter: 9, RRCount: 400}

// quick reports whether p is the CI profile: sweeps drop their most
// expensive points and shorten their own windows.
func (p Profile) quick() bool { return p.Name == Quick.Name }

// Row is one reported measurement with its paper anchor.
type Row struct {
	Name     string
	Measured float64
	Paper    float64 // 0 when the paper gives no number for this row
	Unit     string
	Note     string
}

// Ratio returns measured/paper, or 0 when no anchor exists.
func (r Row) Ratio() float64 {
	if r.Paper == 0 {
		return 0
	}
	return r.Measured / r.Paper
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Add appends a row.
func (r *Report) Add(name string, measured, paper float64, unit string) {
	r.Rows = append(r.Rows, Row{Name: name, Measured: measured, Paper: paper, Unit: unit})
}

// AddNote appends a free-form note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as a table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		if row.Paper != 0 {
			fmt.Fprintf(&b, "  %-42s %10.2f %-8s (paper %8.2f, x%.2f)\n",
				row.Name, row.Measured, row.Unit, row.Paper, row.Ratio())
		} else {
			fmt.Fprintf(&b, "  %-42s %10.2f %-8s\n", row.Name, row.Measured, row.Unit)
		}
		if row.Note != "" {
			fmt.Fprintf(&b, "      %s\n", row.Note)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// ledgerWord renders a conservation ledger's verdict in scenario notes.
func ledgerWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "BROKEN"
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Profile) *Report
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get looks an experiment up by id (e.g. "fig9a", "table2").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Scenario is a registered robustness scenario: unlike an Experiment it has
// no paper anchor, so it lives in a separate registry and never appears in
// All() — keeping `ovsbench` full-run output byte-identical.
type Scenario struct {
	ID    string
	Title string
	// Points names the sweep's points for a profile, cheapest first. It is
	// nil for a scenario that has no sweep to select from and no
	// machine-readable result.
	Points func(p Profile) []string
	// Run executes the scenario. A non-empty points restricts the sweep to
	// those names (validate them with CheckPoints first). The second result
	// is the scenario's typed result for JSON output — a *sweepResult[P],
	// api.Envelope plus typed points — and nil exactly when Points is nil.
	Run func(p Profile, points []string) (*Report, any)
}

// CheckPoints rejects a points selection the scenario cannot honour for the
// profile, naming the valid points — a misspelt point must not silently
// measure nothing.
func (s Scenario) CheckPoints(p Profile, points []string) error {
	if len(points) == 0 {
		return nil
	}
	if s.Points == nil {
		return fmt.Errorf("scenario %s has no points to select", s.ID)
	}
	valid := s.Points(p)
	for _, name := range points {
		if !slices.Contains(valid, name) {
			return fmt.Errorf("scenario %s has no point %q in the %s profile; have: %s",
				s.ID, name, p.Name, strings.Join(valid, ", "))
		}
	}
	return nil
}

// reportOnly adapts a scenario with no sweep and no typed result.
func reportOnly(run func(Profile) *Report) func(Profile, []string) (*Report, any) {
	return func(p Profile, _ []string) (*Report, any) { return run(p), nil }
}

var scenarioRegistry = map[string]Scenario{}

func registerScenario(s Scenario) { scenarioRegistry[s.ID] = s }

// GetScenario looks a scenario up by id (e.g. "restart").
func GetScenario(id string) (Scenario, bool) {
	s, ok := scenarioRegistry[id]
	return s, ok
}

// Scenarios returns every scenario sorted by id.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarioRegistry))
	for _, s := range scenarioRegistry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// searchConfig builds the lossless search bracket for a profile.
func searchConfig(p Profile, hiPPS float64) measure.SearchConfig {
	return measure.SearchConfig{LoPPS: 5e4, HiPPS: hiPPS,
		LossTolerance: 0.002, Iterations: p.SearchIter}
}
