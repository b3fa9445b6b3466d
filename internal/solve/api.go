// The unified solver API. The paper defines its six optimization problems
// as one family — two costs (storage Δ, recreation Φ) traded under
// different objectives and constraints (Table 1) — so the solvers are
// exposed as one family too: a Request names a registered Solver and
// carries every knob, Solve dispatches through the registry, and a Result
// wraps the chosen storage graph with optimality metadata. All iterative
// solvers honor context cancellation.
package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Normalized sentinel errors. Every registry solver reports failure through
// one of these (wrapped with detail), so callers — notably the HTTP layer —
// can map error classes to responses without string matching.
var (
	// ErrUnknownSolver marks a Request naming no registered solver.
	ErrUnknownSolver = errors.New("unknown solver")
	// ErrInvalidRequest marks a Request whose knobs fail a solver's
	// validation (missing or NaN budget, α ≤ 1, negative weights, ...).
	ErrInvalidRequest = errors.New("invalid solve request")
	// ErrInfeasible marks a Request whose constraint no spanning tree can
	// satisfy (budget below minimum storage, θ below the SPT bound, ...).
	ErrInfeasible = errors.New("infeasible")
	// ErrCanceled is returned when the Request's context is canceled
	// mid-solve.
	ErrCanceled = errors.New("solve canceled")
)

// Canceled wraps the context's cancellation cause in ErrCanceled; solver
// loops return it when ctx.Done() fires.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// checkCtx returns ErrCanceled when ctx is done, nil otherwise — the check
// every iterative solver loop performs.
func checkCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return canceled(ctx)
	default:
		return nil
	}
}

// Request describes one solve call: which registered solver to run and
// every knob any of them accepts. Knobs irrelevant to the named solver are
// ignored; required knobs are validated before the solver runs.
type Request struct {
	// Solver is the registry name: mst, spt, lmg, mp, last, gith, exact,
	// p4 or p5 (see Solvers for the live list).
	Solver string `json:"solver"`
	// Budget is the total storage budget β (lmg, p4).
	Budget float64 `json:"budget,omitempty"`
	// Theta bounds recreation cost: max Φ for mp and exact, Σ Φ for p5.
	Theta float64 `json:"theta,omitempty"`
	// Alpha is LAST's per-vertex stretch bound (> 1).
	Alpha float64 `json:"alpha,omitempty"`
	// Weights, when non-nil, holds per-version access frequencies for
	// workload-aware lmg (length = number of versions).
	Weights []float64 `json:"weights,omitempty"`
	// Iters bounds the outer binary search of p4 and p5; 0 means 40.
	Iters int `json:"iters,omitempty"`
	// Window and MaxDepth configure gith; 0 means Git's defaults (10, 50).
	Window   int `json:"window,omitempty"`
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxNodes caps exact's branch-and-bound expansion; 0 means 5e6.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Hints carries precomputed artifacts a solver may reuse; it is not
	// part of the wire format. Sweep drivers attach the shared MST/SPT so
	// per-point solves skip recomputing them; callers that derived a
	// default knob from either attach it for the same reason.
	Hints *Hints `json:"-"`
}

// Hints are optional precomputed inputs; solvers that cannot use them
// ignore them.
type Hints struct {
	// MST and SPT are the minimum-storage and shortest-path-tree solutions
	// for the instance being solved.
	MST, SPT *Solution
}

// Result is a solve outcome: the Solution plus the producing solver's name
// and optimality metadata.
type Result struct {
	*Solution
	// Solver is the registry name that produced the result.
	Solver string
	// Optimal reports whether the result is provably optimal for its
	// problem (mst, spt always; exact when the search completed).
	Optimal bool
	// Nodes is the number of branch-and-bound nodes expanded (exact only).
	Nodes int64
}

// Constraint declares which inequality a solver's results are guaranteed to
// satisfy; the registry conformance suite asserts each on every preset.
type Constraint int

const (
	// ConstraintNone: the solver takes no bound (mst, spt, last, gith).
	ConstraintNone Constraint = iota
	// ConstraintStorageLEBudget: total storage ≤ Request.Budget (lmg, p4).
	ConstraintStorageLEBudget
	// ConstraintMaxRLETheta: max recreation ≤ Request.Theta (mp, exact).
	ConstraintMaxRLETheta
	// ConstraintSumRLETheta: Σ recreation ≤ Request.Theta (p5).
	ConstraintSumRLETheta
)

// String names the constraint for tables and docs.
func (c Constraint) String() string {
	switch c {
	case ConstraintStorageLEBudget:
		return "storage ≤ budget"
	case ConstraintMaxRLETheta:
		return "max Φ ≤ θ"
	case ConstraintSumRLETheta:
		return "Σ Φ ≤ θ"
	default:
		return "none"
	}
}

// Knob identifies the Request field a solver sweeps over; sweep drivers use
// it to generate parameter grids without per-solver switches.
type Knob int

const (
	// KnobNone: the solver is parameter-free (mst, spt).
	KnobNone Knob = iota
	// KnobBudget: sweep Request.Budget between MST and SPT storage.
	KnobBudget
	// KnobThetaMax: sweep Request.Theta between SPT and MST max recreation.
	KnobThetaMax
	// KnobThetaSum: sweep Request.Theta between SPT and MST Σ recreation.
	KnobThetaSum
	// KnobAlpha: sweep Request.Alpha over stretch bounds > 1.
	KnobAlpha
	// KnobWindow: sweep Request.Window over Git window sizes.
	KnobWindow
)

// Info is a registered solver's capability record.
type Info struct {
	Name       string     // registry name, e.g. "lmg"
	Algorithm  string     // display name, e.g. "LMG"
	Problem    string     // paper problem it addresses, e.g. "Problem 3"
	Objective  string     // what it minimizes
	Constraint Constraint // guarantee the conformance suite asserts
	Knob       Knob       // the Request field sweeps vary
	Exact      bool       // provably optimal (when it completes)
	// Weighted reports that the solver consumes Request.Weights — its
	// objective scales each version's recreation cost by the supplied
	// access frequency (the paper's workload-aware formulation). Serving
	// layers use this to decide whether deriving weights from access
	// telemetry is worthwhile for a given request.
	Weighted bool
}

// Solver is one registered optimization strategy.
type Solver interface {
	// Info returns the solver's capability metadata.
	Info() Info
	// Validate rejects requests whose knobs the solver cannot honor; it
	// wraps ErrInvalidRequest.
	Validate(inst *Instance, req Request) error
	// Solve runs the solver. Implementations check ctx inside their
	// iterative loops and return ErrCanceled when it fires.
	Solve(ctx context.Context, inst *Instance, req Request) (*Result, error)
}

// funcSolver adapts the package's algorithm functions to the Solver
// interface.
type funcSolver struct {
	info     Info
	validate func(inst *Instance, req Request) error
	run      func(ctx context.Context, inst *Instance, req Request) (*Result, error)
}

func (s funcSolver) Info() Info { return s.info }

func (s funcSolver) Validate(inst *Instance, req Request) error {
	if s.validate == nil {
		return nil
	}
	return s.validate(inst, req)
}

func (s funcSolver) Solve(ctx context.Context, inst *Instance, req Request) (*Result, error) {
	return s.run(ctx, inst, req)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Solver{}
)

// Register adds a solver under its Info().Name; it panics on a duplicate or
// empty name (registration is a programming-time act, like http.Handle).
func Register(s Solver) {
	name := s.Info().Name
	if name == "" {
		panic("solve: Register with empty solver name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("solve: Register called twice for solver " + name)
	}
	registry[name] = s
}

// Lookup returns the solver registered under name, or ErrUnknownSolver.
func Lookup(name string) (Solver, error) {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: %w %q (have %v)", ErrUnknownSolver, name, Names())
	}
	return s, nil
}

// Describe returns the capability record of the named solver.
func Describe(name string) (Info, error) {
	s, err := Lookup(name)
	if err != nil {
		return Info{}, err
	}
	return s.Info(), nil
}

// Names returns every registered solver name, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Solvers returns the capability records of every registered solver, sorted
// by name.
func Solvers() []Info {
	names := Names()
	out := make([]Info, 0, len(names))
	registryMu.RLock()
	defer registryMu.RUnlock()
	for _, name := range names {
		out = append(out, registry[name].Info())
	}
	return out
}

// Solve is the unified entry point: it looks up req.Solver, validates the
// request, and runs the solver under ctx. A nil ctx means Background.
func Solve(ctx context.Context, inst *Instance, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := Lookup(req.Solver)
	if err != nil {
		return nil, err
	}
	if inst == nil {
		return nil, fmt.Errorf("solve: %w: nil instance", ErrInvalidRequest)
	}
	if err := s.Validate(inst, req); err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	return s.Solve(ctx, inst, req)
}

// wrapSolution lifts a Solution into a Result.
func wrapSolution(name string, s *Solution, optimal bool) *Result {
	return &Result{Solution: s, Solver: name, Optimal: optimal}
}

// needsBudget and needsTheta reject a missing, non-positive or NaN bound;
// +Inf is legal and means "unbounded". The negated comparisons are what
// catch NaN, which fails every ordered comparison.
func needsBudget(inst *Instance, req Request) error {
	if !(req.Budget > 0) {
		return fmt.Errorf("solve: %w: solver %q requires a positive Budget", ErrInvalidRequest, req.Solver)
	}
	return nil
}

func needsTheta(inst *Instance, req Request) error {
	if !(req.Theta > 0) {
		return fmt.Errorf("solve: %w: solver %q requires a positive Theta", ErrInvalidRequest, req.Solver)
	}
	return nil
}

func init() {
	Register(funcSolver{
		info: Info{Name: "mst", Algorithm: "MST/MCA", Problem: "Problem 1",
			Objective: "min total storage", Knob: KnobNone, Exact: true},
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := MinStorage(inst)
			if err != nil {
				return nil, err
			}
			return wrapSolution("mst", s, true), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "spt", Algorithm: "SPT", Problem: "Problem 2",
			Objective: "min every recreation cost", Knob: KnobNone, Exact: true},
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := MinRecreation(inst)
			if err != nil {
				return nil, err
			}
			return wrapSolution("spt", s, true), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "lmg", Algorithm: "LMG", Problem: "Problem 3",
			Objective: "min Σ recreation", Constraint: ConstraintStorageLEBudget, Knob: KnobBudget,
			Weighted: true},
		validate: func(inst *Instance, req Request) error {
			if err := needsBudget(inst, req); err != nil {
				return err
			}
			if req.Weights != nil && len(req.Weights) != inst.M.N() {
				return fmt.Errorf("solve: %w: %d weights for %d versions", ErrInvalidRequest, len(req.Weights), inst.M.N())
			}
			for v, w := range req.Weights {
				if !(w >= 0) || math.IsInf(w, 1) {
					return fmt.Errorf("solve: %w: weight %g for version %d is not finite and non-negative", ErrInvalidRequest, w, v)
				}
			}
			return nil
		},
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			opts := lmgOptions{Budget: req.Budget, Freq: req.Weights}
			if req.Hints != nil {
				opts.MST, opts.SPT = req.Hints.MST, req.Hints.SPT
			}
			s, err := lmgRun(ctx, inst, opts)
			if err != nil {
				return nil, err
			}
			return wrapSolution("lmg", s, false), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "mp", Algorithm: "MP", Problem: "Problem 6",
			Objective: "min total storage", Constraint: ConstraintMaxRLETheta, Knob: KnobThetaMax},
		validate: needsTheta,
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := mpRun(ctx, inst, req.Theta)
			if err != nil {
				return nil, err
			}
			return wrapSolution("mp", s, false), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "last", Algorithm: "LAST", Problem: "balanced tree (§4.3)",
			Objective: "balance storage vs recreation", Knob: KnobAlpha},
		validate: func(inst *Instance, req Request) error {
			if !(req.Alpha > 1) {
				return fmt.Errorf("solve: %w: solver %q requires Alpha > 1, got %g", ErrInvalidRequest, req.Solver, req.Alpha)
			}
			return nil
		},
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := lastRun(ctx, inst, req.Alpha, req.Hints)
			if err != nil {
				return nil, err
			}
			return wrapSolution("last", s, false), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "gith", Algorithm: "GitH", Problem: "baseline (§4.4)",
			Objective: "git repack placement", Knob: KnobWindow},
		validate: func(inst *Instance, req Request) error {
			if req.Window < 0 || req.MaxDepth < 0 {
				return fmt.Errorf("solve: %w: solver %q window/depth must be non-negative", ErrInvalidRequest, req.Solver)
			}
			return nil
		},
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			opts := githOptions{Window: req.Window, MaxDepth: req.MaxDepth}
			if opts.Window == 0 {
				opts.Window = 10
			}
			if opts.MaxDepth == 0 {
				opts.MaxDepth = 50
			}
			s, err := githRun(ctx, inst, opts)
			if err != nil {
				return nil, err
			}
			return wrapSolution("gith", s, false), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "exact", Algorithm: "Exact B&B", Problem: "Problem 6 (exact)",
			Objective: "min total storage", Constraint: ConstraintMaxRLETheta, Knob: KnobThetaMax, Exact: true},
		validate: needsTheta,
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			return exactRun(ctx, inst, req.Theta, req.MaxNodes)
		},
	})
	Register(funcSolver{
		info: Info{Name: "p4", Algorithm: "MP + binary search", Problem: "Problem 4",
			Objective: "min max recreation", Constraint: ConstraintStorageLEBudget, Knob: KnobBudget},
		validate: needsBudget,
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := problem4Run(ctx, inst, req.Budget, req.Iters, req.Hints)
			if err != nil {
				return nil, err
			}
			return wrapSolution("p4", s, false), nil
		},
	})
	Register(funcSolver{
		info: Info{Name: "p5", Algorithm: "LMG + binary search", Problem: "Problem 5",
			Objective: "min total storage", Constraint: ConstraintSumRLETheta, Knob: KnobThetaSum},
		validate: needsTheta,
		run: func(ctx context.Context, inst *Instance, req Request) (*Result, error) {
			s, err := problem5Run(ctx, inst, req.Theta, req.Iters, req.Hints)
			if err != nil {
				return nil, err
			}
			return wrapSolution("p5", s, false), nil
		},
	})
}

// SweepRequests generates k Requests varying the named solver's declared
// knob across its natural range on inst — budgets between the MST and SPT
// storage costs, θ bounds between the SPT and MST recreation costs, LAST
// stretch factors, Git window configurations. Parameter-free solvers yield
// a single request. Sweep drivers and benchmarks iterate the registry with
// this instead of hand-listing per-algorithm sweep functions.
func SweepRequests(inst *Instance, name string, k int) ([]Request, error) {
	info, err := Describe(name)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 1
	}
	switch info.Knob {
	case KnobBudget:
		budgets, err := Budgets(inst, k)
		if err != nil {
			return nil, err
		}
		out := make([]Request, len(budgets))
		for i, b := range budgets {
			out[i] = Request{Solver: name, Budget: b}
		}
		return out, nil
	case KnobThetaMax:
		thetas, err := Thetas(inst, k)
		if err != nil {
			return nil, err
		}
		out := make([]Request, len(thetas))
		for i, th := range thetas {
			out[i] = Request{Solver: name, Theta: th}
		}
		return out, nil
	case KnobThetaSum:
		thetas, err := SumThetas(inst, k)
		if err != nil {
			return nil, err
		}
		out := make([]Request, len(thetas))
		for i, th := range thetas {
			out[i] = Request{Solver: name, Theta: th}
		}
		return out, nil
	case KnobAlpha:
		out := make([]Request, k)
		for i := range out {
			out[i] = Request{Solver: name, Alpha: 1.1 + (8-1.1)*float64(i)/float64(max(k-1, 1))}
		}
		return out, nil
	case KnobWindow:
		// The window/depth pairs the paper sweeps in §5 (BF windows 50/25/
		// 20/10 at depth 10, unbounded windows elsewhere).
		cfgs := []Request{
			{Solver: name, Window: 10, MaxDepth: 10},
			{Solver: name, Window: 20, MaxDepth: 10},
			{Solver: name, Window: 50, MaxDepth: 50},
			{Solver: name, Window: inst.M.N(), MaxDepth: 50},
		}
		if k < len(cfgs) {
			cfgs = cfgs[:k]
		}
		return cfgs, nil
	default:
		return []Request{{Solver: name}}, nil
	}
}

// SweepSolver runs the named solver across its SweepRequests grid,
// skipping infeasible points exactly as the paper's tradeoff sweeps do.
// The shared MST/SPT inputs are computed once and attached as Hints so
// per-point solves do not recompute them. Cancellation aborts the whole
// sweep with ErrCanceled.
func SweepSolver(ctx context.Context, inst *Instance, name string, k int) ([]*Result, error) {
	reqs, err := SweepRequests(inst, name, k)
	if err != nil {
		return nil, err
	}
	hints := &Hints{}
	if hints.MST, err = MinStorage(inst); err != nil {
		return nil, err
	}
	if hints.SPT, err = MinRecreation(inst); err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(reqs))
	for _, req := range reqs {
		req.Hints = hints
		res, err := Solve(ctx, inst, req)
		switch {
		case err == nil:
			out = append(out, res)
		case errors.Is(err, ErrInfeasible):
			continue
		default:
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("solve: sweep %s: every point infeasible: %w", name, ErrInfeasible)
	}
	return out, nil
}
