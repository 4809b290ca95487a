// Package balancer is the placement control plane above core: one
// process that keeps a scoreboard of per-box health read from each
// box's core.Pressure (its port's queues, shed and fault drops, the
// streams shed now and its copy watermark), ranks boxes with a
// weighted load score under hysteresis, and acts on the ranking three
// ways:
//
//   - placement: it installs itself as core's Placer, so every move
//     of a tree member — attachment, late-join pull, repair, migration,
//     interior removal — adopts the least-loaded eligible box instead
//     of the first fit, and `call A ?` timeline events pick the
//     least-loaded callee;
//   - admission: new calls are admitted against a concurrency budget
//     and rejected outright when it is exhausted — rejecting a call
//     that cannot be served well comes before degrading ones that are
//     being served (principle 1's ordering: reject > shed-video >
//     shed-audio);
//   - migration: when a relay box's fabric egress queue stays above
//     the migrate high-water mark, its forwarded subtrees are
//     re-homed onto less-loaded boxes mid-stream via core.MigrateTree
//     — the move a repair makes, with nothing failed and no repair
//     booked — applied between segments (principle 6).
//
// Determinism: the balancer samples only on its own virtual-time
// ticks, never reads the wall clock, and iterates boxes in sorted
// name order; the pick is the first candidate with the lowest banded
// score, so score ties preserve placement order and a fully idle
// system places exactly like first-fit. Replays with the same seed are therefore
// byte-identical.
//
// Ownership: the balancer never touches segment wires. It reads
// ports, answers placement picks, and drives route changes only
// through core's control API (MigrateTree); every wire it causes to
// move is moved — and refcounted — by core, fabric and box under
// their own ownership rules.
package balancer

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/occam"
)

// Config parameterises a Balancer. Zero values select defaults.
type Config struct {
	// Interval is the scoreboard sampling / migration-decision period
	// (default 40 ms).
	Interval time.Duration
	// Budget bounds concurrently admitted calls; further calls are
	// rejected until one closes. 0 means no admission control.
	Budget int
	// MigrateHighWater is the fabric egress-queue occupancy ratio at
	// or above which a relay box's subtrees are migrated away
	// (default 0.85).
	MigrateHighWater float64
	// Cooldown is the minimum spacing between migrations (default
	// 2 s) — one route reshape at a time, settle, then look again.
	Cooldown time.Duration
	// MaxMigrations bounds migrations per run (0 = unlimited).
	MaxMigrations int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 40 * time.Millisecond
	}
	if c.MigrateHighWater <= 0 {
		c.MigrateHighWater = 0.85
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// Sample is one box's scoreboard reading at one tick, taken from its
// core.Pressure.
type Sample struct {
	Queue, Ingress float64 // the pressure's Egress and Ingress
	Sheds          float64 // the pressure's Sheds, + 1 if the port shed cells since the last tick
	Faults         float64 // 1 if the port dropped cells to injected faults since the last tick
	Copies         float64 // the pressure's Copies
	Placements     float64 // how often the balancer has placed load here
}

// The score weights: queue pressure dominates, the rest break ties
// toward quiet, rarely-chosen boxes.
const (
	wQueue   = 1.0
	wIngress = 0.5
	wSheds   = 0.5
	wFaults  = 0.25
	wCopies  = 0.25
	wPlace   = 0.125
)

// hysteresis is the score band: a box's effective score follows its
// raw score only when the raw score moves further than this from the
// last adopted value, so rankings do not flap with queue jitter.
const hysteresis = 0.10

// Score folds a sample into the weighted raw load score, with
// queue/ingress the port occupancy ratios:
//
//	score = wQueue·queue + wIngress·ingress
//	      + wSheds·min(1, sheds/4) + wFaults·min(1, faults)
//	      + wCopies·min(1, copies/16) + wPlace·min(1, placements/16)
func Score(s Sample) float64 {
	return wQueue*s.Queue + wIngress*s.Ingress +
		wSheds*clamp01(s.Sheds/4) + wFaults*clamp01(s.Faults) +
		wCopies*clamp01(s.Copies/16) + wPlace*clamp01(s.Placements/16)
}

// applyHysteresis returns the next effective score: raw is adopted
// only when it moved out of the band around the previous value.
func applyHysteresis(eff, raw float64) float64 {
	if raw > eff+hysteresis || raw < eff-hysteresis {
		return raw
	}
	return eff
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Migration is one logged mid-stream migration decision.
type Migration struct {
	At     occam.Time
	Box    string  // the hot box load was moved away from
	Stream uint32  // source-local stream id of the reshaped tree
	Moved  int     // subtrees re-homed
	Queue  float64 // the egress occupancy ratio that triggered it
}

func (m Migration) String() string {
	return fmt.Sprintf("[%10.3fms] migrate %d subtree(s) of stream %d off %s (queue=%.2f)",
		m.At.Millis(), m.Moved, m.Stream, m.Box, m.Queue)
}

// board is one box's scoreboard slot.
type board struct {
	name string

	prevShed, prevFault uint64  // the port's shed and fault drops at the last tick
	lastQueue           float64 // most recent raw egress ratio (migration trigger)
	raw, eff            float64
	placements          uint64
}

// Balancer is the control plane. It is driven entirely by the
// virtual-time runtime (its own tick process plus core's placement
// callbacks), so no locking is needed.
type Balancer struct {
	sys *core.System
	cfg Config
	reg *obs.Registry

	names  []string
	boards map[string]*board

	admitted int
	accepted uint64
	rejected uint64
	placed   uint64
	managed  []*core.Stream
	migs     []Migration
	migFrom  map[string]int
	lastMig  occam.Time
	everMig  bool
}

// New builds a Balancer over sys's current boxes, installs it as the
// system's Placer, and registers its own obs instruments
// (balancer_score per box, balancer_rejected_total,
// balancer_migrations_total, balancer_placements_total). Call Start
// to begin sampling; placement picks work immediately (all scores
// zero until the first tick, so early placements equal first-fit).
func New(sys *core.System, cfg Config) *Balancer {
	b := &Balancer{
		sys:     sys,
		cfg:     cfg.withDefaults(),
		reg:     sys.Obs,
		names:   sys.BoxNames(),
		boards:  make(map[string]*board),
		migFrom: make(map[string]int),
	}
	for _, name := range b.names {
		bd := &board{name: name}
		b.boards[name] = bd
		boardTable.Register(b.reg, bd, obs.L("box", bd.name))
	}
	balancerTable.Register(b.reg, b)
	sys.SetPlacer(b)
	return b
}

// boardTable is a box's effective score.
var boardTable = obs.NewTable(obs.GaugeOf("balancer_score", func(bd *board) float64 { return bd.eff }))

// balancerTable is the control plane's admission, placement and
// migration counts.
var balancerTable = obs.NewTable(
	obs.CounterOf("balancer_rejected_total", func(b *Balancer) uint64 { return b.rejected }),
	obs.CounterOf("balancer_admitted_total", func(b *Balancer) uint64 { return b.accepted }),
	obs.CounterOf("balancer_placements_total", func(b *Balancer) uint64 { return b.placed }),
	obs.CounterOf("balancer_migrations_total", func(b *Balancer) uint64 { return uint64(len(b.migs)) }),
)

// Start launches the sampling/migration tick process.
func (b *Balancer) Start() {
	b.sys.RT.Go("balancer", nil, occam.High, b.run)
}

func (b *Balancer) run(p *occam.Proc) {
	for {
		p.Sleep(b.cfg.Interval)
		b.tick()
		b.maybeMigrate(p)
	}
}

// tick samples every board in sorted name order and updates the
// banded effective scores.
func (b *Balancer) tick() {
	for _, name := range b.names {
		bd := b.boards[name]
		s := bd.sampleNow(b.sys.Pressure(name))
		bd.lastQueue = s.Queue
		bd.raw = Score(s)
		bd.eff = applyHysteresis(bd.eff, bd.raw)
	}
}

// sampleNow reads one box's pressure record as a Sample.
func (bd *board) sampleNow(pr core.Pressure) Sample {
	s := Sample{Queue: pr.Egress, Ingress: pr.Ingress, Sheds: float64(pr.Sheds),
		Copies: float64(pr.Copies), Placements: float64(bd.placements)}
	if pr.ShedDrops > bd.prevShed {
		s.Sheds++
		bd.prevShed = pr.ShedDrops
	}
	if pr.FaultDrops > bd.prevFault {
		s.Faults = 1
		bd.prevFault = pr.FaultDrops
	}
	return s
}

// Pick returns the index of the candidate with the lowest effective
// score, the first of equals, so score ties keep placement order
// (first-fit), and books the placement. core's placement makes the
// same choice through Load and Placed.
func (b *Balancer) Pick(cands []string) int {
	best := 0
	for i := range cands {
		if b.Load(cands[i]) < b.Load(cands[best]) {
			best = i
		}
	}
	b.Placed(cands[best])
	return best
}

// Load implements core.Placer: the box's effective score.
func (b *Balancer) Load(name string) float64 {
	if bd := b.boards[name]; bd != nil {
		return bd.eff
	}
	return 0
}

// Placed implements core.Placer: the box's placement count rises — the
// wPlace term that spreads otherwise-identical boxes.
func (b *Balancer) Placed(name string) {
	if bd := b.boards[name]; bd != nil {
		bd.placements++
		b.placed++
	}
}

// PlaceCall picks the least-loaded box (other than from) reachable in
// both directions — the callee for a `call FROM ?` timeline event.
func (b *Balancer) PlaceCall(from string) (string, bool) {
	var cands []string
	for _, n := range b.names {
		if n == from {
			continue
		}
		if b.sys.Connectable(from, n) && b.sys.Connectable(n, from) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[b.Pick(cands)], true
}

// AdmitCall decides one new call (or conference, or stream-opening
// timeline op) against the budget: reject before degrade. Admitted
// calls hold a budget slot until ReleaseCall.
func (b *Balancer) AdmitCall() bool {
	if b.cfg.Budget > 0 && b.admitted >= b.cfg.Budget {
		b.rejected++
		return false
	}
	b.admitted++
	b.accepted++
	return true
}

// ReleaseCall returns one admitted call's budget slot.
func (b *Balancer) ReleaseCall() {
	if b.admitted > 0 {
		b.admitted--
	}
}

// Manage registers an open tree stream as a migration candidate; it
// stays one until it closes.
func (b *Balancer) Manage(st *core.Stream) {
	if st != nil {
		b.managed = append(b.managed, st)
	}
}

// maybeMigrate performs at most one migration per tick: the first box
// in sorted order whose egress occupancy sits at or above the
// high-water mark, and that relays an open managed stream, has that
// stream's subtrees re-homed via core.MigrateTree. The cooldown (and
// MaxMigrations cap) keeps reshapes apart so the fabric settles
// between them — no ping-pong.
func (b *Balancer) maybeMigrate(p *occam.Proc) {
	if b.cfg.MaxMigrations > 0 && len(b.migs) >= b.cfg.MaxMigrations {
		return
	}
	now := p.Now()
	if b.everMig && now.Sub(b.lastMig) < b.cfg.Cooldown {
		return
	}
	b.managed = slices.DeleteFunc(b.managed, (*core.Stream).Closed)
	for _, name := range b.names {
		bd := b.boards[name]
		if bd.lastQueue < b.cfg.MigrateHighWater {
			continue
		}
		for _, st := range b.managed {
			if st.Tree.Relays(name) == 0 {
				continue
			}
			// A move the plan refuses moves nothing: try the next stream.
			moved, _ := b.sys.MigrateTree(p, st, name)
			if moved == 0 {
				continue
			}
			b.migs = append(b.migs, Migration{
				At: now, Box: name, Stream: st.Local, Moved: moved, Queue: bd.lastQueue,
			})
			b.migFrom[name]++
			b.lastMig, b.everMig = now, true
			b.reg.Tracer().Emit(obs.EvRepair, "balancer", st.Local,
				fmt.Sprintf("migrated %d subtree(s) off hot %s (queue=%.2f)", moved, name, bd.lastQueue))
			return
		}
	}
}

// Rejected returns how many calls admission refused.
func (b *Balancer) Rejected() uint64 { return b.rejected }

// Admitted returns how many calls admission accepted (cumulative).
func (b *Balancer) Admitted() uint64 { return b.accepted }

// Migrations returns the migration log.
func (b *Balancer) Migrations() []Migration { return append([]Migration(nil), b.migs...) }

// MigrationsFrom returns how many migrations moved load off box.
func (b *Balancer) MigrationsFrom(box string) int { return b.migFrom[box] }

// BoxScore is one scoreboard row for reports.
type BoxScore struct {
	Name       string
	Eff, Raw   float64
	Queue      float64
	Placements uint64
}

// Scores returns the scoreboard in sorted name order.
func (b *Balancer) Scores() []BoxScore {
	out := make([]BoxScore, 0, len(b.names))
	for _, name := range b.names {
		bd := b.boards[name]
		out = append(out, BoxScore{
			Name: name, Eff: bd.eff, Raw: bd.raw,
			Queue: bd.lastQueue, Placements: bd.placements,
		})
	}
	return out
}
