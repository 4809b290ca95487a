package scenario

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/box"
	"repro/internal/degrade"
	"repro/internal/faultinject"
)

// The scenario language is written once, as the tables in this file:
// a clause table per directive, one row per event op and one row per
// assert kind. Parse, Format and Validate all read them, and
// TestGrammarDocMatchesTables ties them to Parse's doc comment.

// clause is one row of a directive's clause table: a key and the field
// it sets. The field's type picks the codec: *bool is a bare flag,
// *string any text, *int an integer ≥ min, *uint32 and *uint64
// unsigned, *time.Duration a duration ≥ min ns, *int64 a bit rate with a k/M
// suffix, *float64 a number in [0,1], *faultinject.Window a window
// FROM-TO with FROM < TO, *[]faultinject.Window a list that each value
// adds a window to, *map[string][]faultinject.Window the same by board
// (BOARD:FROM-TO, BOARD one of box.CrashBoards), and []any a tuple of
// such fields joined by sep. A composite clause has no field and brings
// its own parse and print.
type clause struct {
	key    string
	field  any
	min    int    // least int accepted: 0, 1 or noMin, which leaves every range to a check elsewhere
	sep    string // a tuple's separator
	tail   bool   // a tuple's last value may be left off
	always bool   // printed even when zero
	repeat bool   // may be given more than once
	parse  func(val string) error
	print  func() []string // the values to print; none when absent
}

// noMin marks a row whose ranges a check elsewhere owns: Validate's
// for the video rect and rate, and the degrade and balance checks,
// whose messages tests pin.
const noMin = math.MinInt

// intWant and durWant describe an int or duration row's range by its
// min, for errors.
var (
	intWant = map[int]string{noMin: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
	durWant = map[int]string{noMin: "a duration", 0: "a non-negative duration", 1: "a positive duration"}
)

// set parses val into the clause's field.
func (c *clause) set(val string) error {
	if c.parse != nil {
		return c.parse(val)
	}
	var err error
	ok, want := true, "an unsigned integer"
	switch f := c.field.(type) {
	case *bool:
		*f = true
	case *string:
		*f = val
	case *int:
		*f, err = strconv.Atoi(val)
		ok, want = *f >= c.min, intWant[c.min]
	case *uint32:
		var n uint64
		n, err = strconv.ParseUint(val, 10, 32)
		*f, want = uint32(n), "an unsigned 32-bit integer"
	case *uint64:
		*f, err = strconv.ParseUint(val, 10, 64)
	case *time.Duration:
		*f, err = time.ParseDuration(val)
		ok, want = c.min == noMin || *f >= time.Duration(c.min), durWant[c.min]
	case *int64:
		*f, ok = parseBits(val)
		want = "a bit rate [FLOAT][k|M] within 1e15"
	case *float64:
		*f, err = strconv.ParseFloat(val, 64)
		ok, want = *f >= 0 && *f <= 1 || c.min == noMin, "a number in [0,1]" // NaN is out
	case *faultinject.Window:
		err = (&clause{key: c.key, field: []any{&f.From, &f.To}, sep: "-"}).set(val)
		ok, want = f.From < f.To, "a window FROM-TO with FROM < TO"
	case *[]faultinject.Window:
		var w faultinject.Window
		if err := (&clause{key: c.key, field: &w}).set(val); err != nil {
			return err
		}
		*f = append(*f, w)
	case *map[string][]faultinject.Window:
		board, win, _ := strings.Cut(val, ":")
		if !slices.Contains(box.CrashBoards[:], board) {
			return fmt.Errorf("%s wants BOARD:FROM-TO with BOARD one of %s, got %q", c.key, strings.Join(box.CrashBoards[:], ", "), val)
		}
		var w faultinject.Window
		if err := (&clause{key: c.key, field: &w}).set(win); err != nil {
			return err
		}
		if *f == nil {
			*f = make(map[string][]faultinject.Window)
		}
		(*f)[board] = append((*f)[board], w)
	case []any:
		parts := strings.Split(val, c.sep)
		if n := len(parts); n != len(f) && !(c.tail && n == len(f)-1) {
			return fmt.Errorf("%s wants %d values joined by %q, got %q", c.key, len(f), c.sep, val)
		}
		for i, p := range parts {
			if err := (&clause{key: c.key, field: f[i], min: c.min}).set(p); err != nil {
				return err
			}
		}
	}
	if err != nil || !ok {
		return fmt.Errorf("%s wants %s, got %q", c.key, want, val)
	}
	return nil
}

// text renders a field as Format prints it and reports whether it holds
// its zero value.
func text(field any, sep string) (v string, zero bool) {
	switch f := field.(type) {
	case *bool:
		return "", !*f
	case *int64: // a bit rate: the largest exact suffix, so parsed and printed forms agree
		if v := *f; v != 0 && v%1000 == 0 {
			if v%1_000_000 == 0 {
				return fmt.Sprintf("%dM", v/1_000_000), false
			}
			return fmt.Sprintf("%dk", v/1000), false
		}
	case *float64:
		return fmtFloat(*f), *f == 0
	case *faultinject.Window:
		return text([]any{&f.From, &f.To}, "-")
	case []any:
		parts, zero := make([]string, len(f)), true
		for i, p := range f {
			var z bool
			parts[i], z = text(p, "")
			zero = zero && z
		}
		return strings.Join(parts, sep), zero
	}
	e := reflect.ValueOf(field).Elem()
	return fmt.Sprint(e.Interface()), e.IsZero()
}

// parseClauses sets table's fields from a line's clause tokens; what
// names the directive or op in errors.
func parseClauses(what string, table []clause, toks []string) error {
	var seen uint64
	for _, tok := range toks {
		key, val, hasVal := strings.Cut(tok, "=")
		i := slices.IndexFunc(table, func(c clause) bool { return c.key == key })
		if i < 0 {
			return fmt.Errorf("unknown %s clause %q", what, key)
		}
		c := &table[i]
		_, flag := c.field.(*bool)
		switch {
		case flag && hasVal:
			return fmt.Errorf("%s flag %q takes no value", what, key)
		case !flag && !hasVal:
			return fmt.Errorf("%s clause %q wants key=value", what, tok)
		case seen&(1<<i) != 0 && !c.repeat:
			return fmt.Errorf("%s clause %q given twice", what, key)
		}
		seen |= 1 << i
		if err := c.set(val); err != nil {
			return err
		}
	}
	return nil
}

// writeLine prints one line of Format's output: head, the clauses of
// each table (tables separated by " /", as a link's hops are), tail.
func writeLine(sb *strings.Builder, head, tail string, tables ...[]clause) {
	sb.WriteString(head)
	for i, table := range tables {
		if i > 0 {
			sb.WriteString(" /")
		}
		for _, c := range table {
			for _, v := range c.values() {
				sb.WriteString(" " + c.key)
				if v != "" { // "" is a set flag
					sb.WriteString("=" + v)
				}
			}
		}
	}
	sb.WriteString(tail + "\n")
}

// values renders a clause's field as Format prints it: one value per
// window of a list, none for a zero field not always printed.
func (c *clause) values() []string {
	var out []string
	switch f := c.field.(type) {
	case nil:
		return c.print()
	case *[]faultinject.Window:
		for i := range *f {
			v, _ := text(&(*f)[i], "")
			out = append(out, v)
		}
	case *map[string][]faultinject.Window:
		for _, board := range slices.Sorted(maps.Keys(*f)) {
			for i := range (*f)[board] {
				v, _ := text(&(*f)[board][i], "")
				out = append(out, board+":"+v)
			}
		}
	default:
		if v, zero := text(c.field, c.sep); !zero || c.always {
			out = append(out, v)
		}
	}
	return out
}

// clauses is the box directive's clause table. Every table lists its
// rows in the order Format prints them.
func (b *Box) clauses() []clause {
	return []clause{
		{key: "mic", parse: func(val string) error {
			b.Mic = &Mic{}
			return (&clause{key: "mic", field: []any{&b.Mic.Kind, &b.Mic.A, &b.Mic.B}, sep: ":"}).set(val)
		}, print: func() []string {
			if b.Mic == nil {
				return nil
			}
			v, _ := text([]any{&b.Mic.Kind, &b.Mic.A, &b.Mic.B}, ":")
			return []string{v}
		}},
		{key: "camera", field: []any{&b.CameraW, &b.CameraH}, sep: "x", min: 1},
		{key: "blocks", field: &b.BlocksPerSegment, min: 1},
		{key: "netif", field: &b.NetInterfaceBits},
		{key: "interleave", field: &b.InterleaveNetwork},
		{key: "sharednet", field: &b.SharedNetBuffer},
		{key: "jitter", field: &b.Features.JitterCorrection},
		{key: "muting", field: &b.Features.Muting},
		{key: "interface", field: &b.Features.Interface},
		{key: "crash", field: &b.Crashes, repeat: true},
		{key: "sinkstall", field: &b.SinkStalls, repeat: true},
	}
}

// hopClauses is the table of one hop of a link line.
func hopClauses(h *atm.LinkConfig) []clause {
	return []clause{
		{key: "bw", field: &h.Bandwidth, always: true},
		{key: "prop", field: &h.Propagation},
		{key: "queue", field: &h.QueueLimit},
		{key: "loss", field: &h.LossRate},
		{key: "lseed", field: &h.Seed},
	}
}

func (f *Fabric) clauses() []clause {
	return []clause{
		{key: "portbw", field: &f.PortBandwidth},
		{key: "prop", field: &f.Propagation},
		{key: "egress", field: &f.EgressCellLimit, min: 1},
	}
}

func (f *Feed) clauses() []clause {
	return []clause{
		{key: "n", field: &f.N, always: true},
		{key: "base", field: &f.Base, always: true},
	}
}

func (c *Cross) clauses() []clause {
	return []clause{
		{key: "hop", field: &c.Hop, always: true},
		{key: "vci", field: &c.VCI, always: true},
		{key: "seed", field: &c.Seed, always: true},
		{key: "gap", field: &c.Gap, always: true},
		{key: "size", field: []any{&c.SizeMin, &c.SizeJitter}, sep: "+", always: true},
	}
}

func degradeClauses(d *degrade.Config) []clause {
	return []clause{
		{key: "shed", field: &d.ShedEvery, min: noMin, always: true},
		{key: "hold", field: &d.Hold, min: noMin, always: true},
	}
}

func balanceClauses(b *balancer.Config) []clause {
	return []clause{
		{key: "budget", field: &b.Budget, min: noMin},
		{key: "interval", field: &b.Interval, min: noMin},
		{key: "migrate", field: &b.MigrateHighWater, min: noMin},
		{key: "cooldown", field: &b.Cooldown, min: noMin},
		{key: "maxmig", field: &b.MaxMigrations, min: noMin},
	}
}

// faultClauses is the fault list's table: the rows a faults directive
// names one per comma-separated token. Every
// row may be repeated: a later value overrides, and a later window adds
// to its list.
func faultClauses(s *faultinject.Spec) []clause {
	return []clause{
		{key: "burst", field: []any{&s.Link.BurstEnter, &s.Link.BurstLen}, sep: "/", min: 1, tail: true},
		{key: "corrupt", field: &s.Link.Corrupt},
		{key: "dup", field: &s.Link.Duplicate},
		{key: "jitter", field: []any{&s.Link.JitterMean, &s.Link.JitterStddev}, sep: "/", min: noMin, tail: true},
		{key: "stall", field: []any{&s.Link.StallEvery, &s.Link.StallFor}, sep: "/", min: noMin},
		{key: "stallwin", field: &s.Link.Stalls},
		{key: "target", field: &s.Target},
		{key: "seed", field: &s.Seed},
	}
}

// faultWords are the canned faults, each a fault list of its own, set
// to visibly stress a few-second conference run without silencing it.
var faultWords = map[string]string{
	"loss":    "burst=0.01/4",
	"corrupt": "corrupt=0.01",
	"dup":     "dup=0.005",
	"jitter":  "jitter=1ms/2ms",
	"stall":   "stall=1s/150ms",
	"all":     "loss,corrupt,dup,jitter",
}

// The operand shapes of the event ops, each written as the usage
// error prints it.
const (
	toList  = "FROM -> TO[,TO...]"
	pair    = "A B"
	members = "M1 M2..."
	refDst  = "REF DST"
	refDsts = "REF DST[,DST...]"
	refOnly = "REF"
)

// op is one row of the event-op table: the op's operand shape, its
// clause table and whether it opens a stream that "as REF" names.
// Runner.apply holds what each op does.
type op struct {
	shape   string
	clauses func(ev *Event) []clause
	opens   bool
}

var ops = map[string]op{
	"audio":      {shape: toList, opens: true, clauses: none},         // one-way stream From → To...
	"video":      {shape: toList, opens: true, clauses: videoClauses}, // a camera band From → To...
	"tree":       {shape: toList, opens: true, clauses: treeClauses},  // audio over replication trees
	"call":       {shape: pair, opens: true, clauses: none},           // audio both ways between From and To[0]
	"conference": {shape: members, opens: true, clauses: none},        // full mesh over From and To
	"drop":       {shape: refDst, clauses: none},                      // remove destination To[0] from stream Ref
	"pull":       {shape: refDsts, clauses: none},                     // late joiners To... graft onto tree stream Ref
	"repair":     {shape: refDst, clauses: none},                      // re-home the orphans of tree Ref's relay To[0]
	"close":      {shape: refOnly, clauses: none},                     // tear down stream Ref
	"netsend":    {shape: toList, clauses: netsendClauses},            // raw route: Stream at From onto VCI toward To[0]
}

func none(*Event) []clause { return nil }

func videoClauses(ev *Event) []clause {
	return []clause{
		{key: "rect", field: []any{&ev.Cam.Rect.X, &ev.Cam.Rect.Y, &ev.Cam.Rect.W, &ev.Cam.Rect.H}, sep: ",", min: noMin, always: true},
		{key: "rate", field: []any{&ev.Cam.Rate.Num, &ev.Cam.Rate.Den}, sep: "/", min: noMin, always: true},
		{key: "segs", field: &ev.Cam.SegsPerFrame, min: 1},
	}
}

func treeClauses(ev *Event) []clause {
	return []clause{{key: "k", field: &ev.Tree.Fanout}, {key: "trees", field: &ev.Tree.Trees, min: 1}}
}

func netsendClauses(ev *Event) []clause {
	return []clause{{key: "stream", field: &ev.Stream}, {key: "vci", field: &ev.VCI}}
}

// assertRow is one row of the assert table: what the kind's Arg names
// ("" for nothing, BOX, REF a stream ref, CTRL a controller, NAME an
// obs gauge), whether its Value is absent (""), optional ("[N]") or
// required ("N"), and whether it needs a balance block. Runner.check
// holds what each kind measures.
type assertRow struct {
	arg, value string
	balance    bool
}

// usage renders the assert line the row wants.
func (k assertRow) usage(kind string) string {
	return strings.Join(strings.Fields("assert "+kind+" "+k.arg+" "+k.value), " ")
}

var assertKinds = map[string]assertRow{
	"no-audio-shed":           {},                                      // no controller ever shed audio
	"video-shed":              {value: "[N]"},                          // ≥ N video sheds happened (default 1)
	"shed-order-oldest-first": {arg: "CTRL"},                           // controller CTRL shed strictly oldest-first
	"survivors-identical":     {},                                      // surviving deliveries match the fault-free twin's
	"wires-drain":             {},                                      // every box wire pool has free == allocations
	"gauge-zero":              {arg: "NAME"},                           // every sample of obs gauge NAME is 0
	"gauge-max":               {arg: "NAME", value: "N"},               // every sample of obs gauge NAME is ≤ N
	"min-segments":            {arg: "REF", value: "N"},                // every destination of REF played ≥ N segments
	"max-lost":                {arg: "REF", value: "N"},                // every destination of REF lost ≤ N segments
	"max-silence-pct":         {arg: "REF", value: "N"},                // silence fill ≤ N% of blocks at every destination
	"faults-fired":            {},                                      // at least one injected fault actually fired
	"circuits":                {arg: "BOX", value: "[N]"},              // BOX's open circuit count (exactly N when given)
	"copies-max":              {arg: "BOX", value: "N"},                // BOX never fanned out > N copies of one stream
	"rejected":                {value: "N", balance: true},             // admission control rejected exactly N calls
	"migrations":              {arg: "BOX", value: "N", balance: true}, // exactly N balancer migrations off BOX
	"spread":                  {arg: "REF", value: "N"},                // tree stream REF ends fed by ≥ N distinct boxes
}
