package nmad

import (
	"nmad/internal/scenario"
)

// Declarative scenario surface of the facade: load a YAML description
// of a cluster experiment — machine, workload timeline, mid-run events,
// assertions — and run it on the simulated optimizer. cmd/nmad-sim is
// the CLI over this surface; the scenarios/ corpus at the repository
// root is the committed, CI-checked set of experiments.
//
//	sc, err := nmad.LoadScenario("scenarios/incast-burst.yaml")
//	rep, err := nmad.RunScenario(sc, nmad.ScenarioConfig{})
//	rep.Write(os.Stdout)
//
// See the internal/scenario package documentation for the file format
// reference.

// Scenario is one parsed scenario: cluster, phases, events, assertions.
type Scenario = scenario.Scenario

// ScenarioConfig adjusts one run (recording capture, scheduling
// timeline, verbose progress).
type ScenarioConfig = scenario.Config

// ScenarioReport is the outcome of one run: per-phase completion,
// assertion results, final counters.
type ScenarioReport = scenario.Report

var (
	// LoadScenario reads, parses and validates one scenario file.
	LoadScenario = scenario.Load
	// ParseScenario parses a scenario document from memory (validation
	// is separate — see ValidateScenario).
	ParseScenario = scenario.Parse
	// ValidateScenario returns every semantic violation in a parsed
	// scenario, each wrapping one of the Scenario* sentinel errors.
	ValidateScenario = scenario.Validate
	// RunScenario executes a validated scenario and evaluates its
	// assertions; the error wraps ScenarioErrAssertFailed when the run
	// completed but an assertion did not hold.
	RunScenario = scenario.Run
	// ListScenarioDir loads every *.yaml scenario in a directory in name
	// order, returning per-file errors for the unloadable ones.
	ListScenarioDir = scenario.ListDir
)

// The scenario error taxonomy, for errors.Is classification.
var (
	ScenarioErrSyntax            = scenario.ErrSyntax
	ScenarioErrSchema            = scenario.ErrSchema
	ScenarioErrBadValue          = scenario.ErrBadValue
	ScenarioErrUnknownPhase      = scenario.ErrUnknownPhase
	ScenarioErrUnknownAction     = scenario.ErrUnknownAction
	ScenarioErrUnknownAssert     = scenario.ErrUnknownAssert
	ScenarioErrBadTarget         = scenario.ErrBadTarget
	ScenarioErrPhaseOverlap      = scenario.ErrPhaseOverlap
	ScenarioErrUnknownCheckpoint = scenario.ErrUnknownCheckpoint
	ScenarioErrAssertFailed      = scenario.ErrAssertFailed
)
