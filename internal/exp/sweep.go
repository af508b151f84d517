package exp

import (
	"context"
	"errors"
	"fmt"

	"upmgo/internal/topology"
)

// Kind names one of the paper's five sweeps. It is the discriminator of
// SweepRequest — the same value that appears in the wire form of
// cmd/sweepd's POST /v1/jobs body — and marshals as its string name.
type Kind string

// The paper's sweeps, in presentation order.
const (
	KindFigure1 Kind = "figure1" // Figure 1: four placements × {plain, IRIX kernel migration}
	KindFigure4 Kind = "figure4" // Figure 4: Figure 1 plus a UPMlib cell per placement
	KindTable2  Kind = "table2"  // Table 2: steady-state slowdown and migration timing
	KindFigure5 Kind = "figure5" // Figure 5: record–replay on BT and SP
	KindFigure6 Kind = "figure6" // Figure 6: record–replay on the synthetically scaled BT

	// KindTopoScale is not in the paper: it reruns the Figure 4 grid on
	// the hierarchical 64/128/256-CPU machine shapes (TopoScaleShapes,
	// narrowed by Options.Topo) to probe where the paper's conclusion
	// breaks on modern machines.
	KindTopoScale Kind = "toposcale"
)

// Kinds lists every valid Kind in presentation order.
var Kinds = []Kind{KindFigure1, KindFigure4, KindTable2, KindFigure5, KindFigure6, KindTopoScale}

// ErrUnknownKind reports a Kind outside the paper's five sweeps. Callers
// match it with errors.Is; cmd/sweepd maps it to 400 Bad Request.
var ErrUnknownKind = errors.New("unknown sweep kind")

// ParseKind converts a string to a Kind, or ErrUnknownKind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("exp: %w: %q", ErrUnknownKind, s)
}

func (k Kind) String() string { return string(k) }

// MarshalText lets Kind serialize inside JSON job specs.
func (k Kind) MarshalText() ([]byte, error) {
	if _, err := ParseKind(string(k)); err != nil {
		return nil, err
	}
	return []byte(k), nil
}

// UnmarshalText validates on the way in, so a bad "kind" field fails at
// decode time, not deep inside a dispatch.
func (k *Kind) UnmarshalText(b []byte) error {
	parsed, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// SweepRequest is the one request surface for every sweep: which figure
// or table to produce, and the options its cells run under. Its JSON
// form is exactly cmd/sweepd's POST /v1/jobs body.
type SweepRequest struct {
	Kind    Kind         `json:"kind"`
	Options SweepOptions `json:"options"`
}

// SweepResult carries whichever shape the request's Kind produces:
// Cells for Figures 1 and 4 and the toposcale sweep, Table2 for Table 2,
// Figure5 for Figures 5 and 6. Exactly one of the three payload fields is
// non-nil on success.
type SweepResult struct {
	Kind    Kind          `json:"kind"`
	Cells   []Cell        `json:"cells,omitempty"`
	Table2  []Table2Row   `json:"table2,omitempty"`
	Figure5 []Figure5Cell `json:"figure5,omitempty"`
}

// Sweep runs one request on the pool: Sweeps with a single request.
func (r Runner) Sweep(ctx context.Context, req SweepRequest) (SweepResult, error) {
	res, err := r.Sweeps(ctx, []SweepRequest{req})
	if err != nil {
		return SweepResult{Kind: req.Kind}, err
	}
	return res[0], nil
}

// Sweeps runs requests as one batch and returns their results in
// request order; it is the one way to run sweeps. The paper's sweeps
// overlap (Figure 1 ⊂ Figure 4; Table 2 and Figure 5 re-read Figure 4's
// cells), and one batch records each benchmark's miss stream once for
// all its requests; with a Cache each shared cell also simulates once.
// Events index the concatenated cells. The cells come from SweepSpecs,
// so an unknown Kind fails with ErrUnknownKind before any cell starts.
func (r Runner) Sweeps(ctx context.Context, reqs []SweepRequest) ([]SweepResult, error) {
	var specs []CellSpec
	ends := make([]int, len(reqs))
	for i, req := range reqs {
		s, err := SweepSpecs(req)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
		ends[i] = len(specs)
	}
	cells, err := r.Cells(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(reqs))
	start := 0
	for i, req := range reqs {
		c := cells[start:ends[i]:ends[i]]
		start = ends[i]
		out[i].Kind = req.Kind
		switch req.Kind {
		case KindTable2:
			out[i].Table2 = table2Rows(c)
		case KindFigure5, KindFigure6:
			out[i].Figure5 = figure5Cells(c)
		default:
			out[i].Cells = c
		}
	}
	return out, nil
}

// SweepSpecs enumerates the cells a request runs, in presentation
// order, without running them. Runner.Sweeps runs exactly these cells;
// cmd/sweepd also uses it to size a job's progress denominator at
// submission time. An Options.Topo that ParseShape rejects fails here.
func SweepSpecs(req SweepRequest) ([]CellSpec, error) {
	if req.Options.Topo != "" {
		if _, err := topology.ParseShape(req.Options.Topo); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	switch req.Kind {
	case KindFigure1:
		return Figure1Specs(req.Options), nil
	case KindFigure4:
		return Figure4Specs(req.Options), nil
	case KindTable2:
		return Table2Specs(req.Options), nil
	case KindFigure5:
		return Figure5Specs(req.Options), nil
	case KindFigure6:
		return Figure5Specs(figure6Options(req.Options)), nil
	case KindTopoScale:
		return TopoScaleSpecs(req.Options), nil
	default:
		return nil, fmt.Errorf("exp: %w: %q", ErrUnknownKind, req.Kind)
	}
}

// figure6Options applies the paper's Figure 6 defaults — the
// synthetically scaled BT (Scale 4) — unless o overrides them.
func figure6Options(o SweepOptions) SweepOptions {
	if o.Benches == nil {
		o.Benches = []string{"BT"}
	}
	if o.Scale == 0 {
		o.Scale = 4
	}
	return o
}

// table2Rows assembles Table 2 from its cells (Table2Specs order: per
// benchmark, the ft baseline followed by one cell per table2Placements).
func table2Rows(cells []Cell) []Table2Row {
	per := 1 + len(table2Placements)
	var out []Table2Row
	for i := 0; i+per <= len(cells); i += per {
		ft := cells[i]
		row := Table2Row{Bench: ft.Bench, SlowdownTail: map[string]float64{}, FirstIterFrac: map[string]float64{}}
		for j, p := range table2Placements {
			c := cells[i+1+j]
			row.SlowdownTail[p.String()] = tailSlowdown(c.Result.IterPS, ft.Result.IterPS)
			if m := c.Result.UPM.Migrations; m > 0 {
				row.FirstIterFrac[p.String()] = float64(c.Result.UPM.FirstInvocation) / float64(m)
			} else {
				row.FirstIterFrac[p.String()] = 1
			}
		}
		out = append(out, row)
	}
	return out
}

// figure5Cells derives the Figure 5/6 bar segments from their cells.
func figure5Cells(cells []Cell) []Figure5Cell {
	out := make([]Figure5Cell, len(cells))
	for i, c := range cells {
		var phase int64
		for _, p := range c.Result.PhasePS {
			phase += p
		}
		out[i] = Figure5Cell{
			Bench:      c.Bench,
			Label:      c.Label,
			Seconds:    c.Seconds(),
			OverheadS:  float64(c.Result.UPM.OverheadPS) / 1e12,
			PhaseS:     float64(phase) / 1e12,
			Migrations: c.Result.UPM.Migrations + c.Result.UPM.ReplayMigrations + c.Result.UPM.UndoMigrations,
		}
	}
	return out
}

// Len reports the number of rows/cells in the result, whatever its
// shape — the unit of a job's progress report.
func (res SweepResult) Len() int {
	switch {
	case res.Cells != nil:
		return len(res.Cells)
	case res.Table2 != nil:
		return len(res.Table2)
	case res.Figure5 != nil:
		return len(res.Figure5)
	}
	return 0
}
