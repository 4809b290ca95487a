// Package scenarios holds the shipped scenario suites (README "Scenario
// files"). A suite an experiment replays is embedded here, so the .scn
// file stays the one copy of its spec.
package scenarios

import _ "embed"

// Balance is balance.scn, the balancer control plane under churn; E24
// replays it at its own seed.
//
//go:embed balance.scn
var Balance string
