package scenario

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/degrade"
	"repro/internal/faultinject"
)

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse reads the scenario text grammar. One directive per line; blank
// lines and #-comments are skipped. Errors name the line. The grammar
// (square brackets optional, UPPERCASE a value):
//
//	scenario NAME
//	seed N
//	duration DUR
//	box NAME [mic=KIND:A:B] [camera=WxH] [blocks=N] [netif=BITS]
//	         [interleave] [sharednet] [jitter] [muting] [interface]
//	         [crash=BOARD:FROM-TO]... [sinkstall=FROM-TO]...
//	link A B bw=BITS [prop=DUR] [queue=N] [loss=P] [lseed=N] [/ HOP]...
//	fabric NAME [portbw=BITS] [prop=DUR] [egress=N]
//	attach FABRIC NODE...
//	feed BOX n=N base=VCI
//	cross A B hop=I vci=N seed=N gap=DUR size=MIN+JITTER
//	at DUR audio FROM -> TO[,TO...] [wave=N/DUR] [as REF]
//	at DUR video FROM -> TO[,TO...] rect=X,Y,W,H rate=N/D [segs=K] [wave=N/DUR] [as REF]
//	at DUR tree FROM -> TO[,TO...] [k=K] [trees=T] [wave=N/DUR] [as REF]
//	at DUR call A B [as REF]        (B may be ? — balancer-placed callee)
//	at DUR conference M1 M2... [as REF]
//	at DUR drop REF DST
//	at DUR pull REF DST[,DST...] [wave=N/DUR]
//	at DUR repair REF BOX
//	at DUR close REF                (no later event may name REF)
//	at DUR netsend FROM -> TO stream=N vci=N
//	faults FAULT[,FAULT...]     (link faults: FAULT a row below or a canned word;
//	         a later row overrides, a window row adds a window; a box's crash
//	         and sink-stall windows go on its box line)
//	         burst=P[/L] corrupt=P dup=P jitter=DUR[/DUR] stall=EVERY/FOR
//	         stallwin=FROM-TO target=PREFIX seed=N
//	         canned: loss (burst=0.01/4), corrupt (corrupt=0.01), dup (dup=0.005),
//	         jitter (jitter=1ms/2ms), stall (stall=1s/150ms), all (loss,corrupt,dup,jitter)
//	degrade shed=DUR hold=DUR
//	balance [budget=N] [interval=DUR] [migrate=F] [cooldown=DUR] [maxmig=N]
//	assert KIND [ARG] [VALUE]
//
//	range  PREFIX[LO..HI] stands for the names PREFIX+LO … PREFIX+HI, LO and
//	       HI written with the same number of digits (v[0001..1000], c[0..6]).
//	       Accepted as a box NAME (one box per name, same clauses), an attach
//	       NODE, a conference member, and an element of a TO or DST list.
//	wave   wave=N/DUR deals the TO or DST list N names at a time into
//	       successive events DUR apart, the first at the line's own time.
//
// BITS accepts a plain count or a k/M suffix ("64k", "100M"). Ranges
// and waves are shorthand only: Parse expands them into the longhand
// lines above before reading them, so a Scenario never holds one and
// Format prints the longhand.
func Parse(text string) (*Scenario, error) {
	sc := &Scenario{}
	budget := maxExpandedNames
	for no, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lines, err := expand(fields, &budget)
		for i := 0; err == nil && i < len(lines); i++ {
			err = sc.parseLine(lines[i], line)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario line %d (%q): %w", no+1, strings.TrimSpace(line), err)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// MustParse is Parse for compiled-in specs; it panics on error.
func MustParse(text string) *Scenario {
	sc, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return sc
}

func (sc *Scenario) parseLine(fields []string, line string) error {
	var err error
	switch fields[0] {
	case "scenario":
		err = clauseLine(fields, "scenario NAME", nil, &sc.Name)
	case "seed":
		err = clauseLine(fields, "seed N", nil, &sc.Seed)
	case "duration":
		err = clauseLine(fields, "duration DUR", nil, &clause{field: &sc.Duration, min: 1})
	case "box":
		sc.Boxes = append(sc.Boxes, Box{})
		b := &sc.Boxes[len(sc.Boxes)-1]
		err = clauseLine(fields, "box NAME [clauses]", b.clauses(), &b.Name)
	case "link":
		if len(fields) < 4 {
			return fmt.Errorf("want: link A B bw=BITS [clauses] [/ HOP]...")
		}
		l := Link{From: fields[1], To: fields[2]}
		// Each hop follows a separator: B before the first, "/" after.
		for toks := fields[2:]; len(toks) > 0 && err == nil; {
			toks = toks[1:]
			n := slices.Index(toks, "/")
			if n < 0 {
				n = len(toks)
			}
			var h atm.LinkConfig
			if err = parseClauses("link", hopClauses(&h), toks[:n]); err == nil && h.Bandwidth <= 0 {
				err = fmt.Errorf("link %s %s: hop needs bw=", l.From, l.To)
			}
			l.Hops, toks = append(l.Hops, h), toks[n:]
		}
		sc.Links = append(sc.Links, l)
	case "fabric":
		var f Fabric
		err = clauseLine(fields, "fabric NAME [clauses]", f.clauses(), &f.Name)
		sc.Fabrics = append(sc.Fabrics, f)
	case "attach":
		if len(fields) < 3 {
			return fmt.Errorf("want: attach FABRIC NODE...")
		}
		for i := range sc.Fabrics {
			if sc.Fabrics[i].Name == fields[1] {
				sc.Fabrics[i].Attach = append(sc.Fabrics[i].Attach, fields[2:]...)
				return nil
			}
		}
		return fmt.Errorf("attach before fabric %q", fields[1])
	case "feed":
		var f Feed
		err = clauseLine(fields, "feed BOX n=N base=VCI", f.clauses(), &f.Box)
		sc.Feeds = append(sc.Feeds, f)
	case "cross":
		var c Cross
		err = clauseLine(fields, "cross A B hop=I vci=N seed=N gap=DUR size=MIN+JITTER", c.clauses(), &c.From, &c.To)
		sc.Cross = append(sc.Cross, c)
	case "at":
		return sc.parseEvent(fields)
	case "faults":
		// Verbatim faultinject grammar: everything after the keyword.
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "faults"))
		if rest == "" {
			return fmt.Errorf("want: faults FAULTSPEC")
		}
		sc.Faults = rest
	case "degrade":
		sc.Degrade = &degrade.Config{}
		if err = clauseLine(fields, "degrade", degradeClauses(sc.Degrade)); err == nil {
			err = checkDegrade(sc.Degrade)
		}
	case "balance":
		sc.Balance = &balancer.Config{}
		if err = clauseLine(fields, "balance", balanceClauses(sc.Balance)); err == nil {
			err = checkBalance(sc.Balance)
		}
	case "assert":
		if len(fields) < 2 {
			return fmt.Errorf("want: assert KIND [ARG] [VALUE]")
		}
		a := Assert{Kind: fields[1]}
		k, ok := assertKinds[a.Kind]
		if !ok {
			return fmt.Errorf("unknown assert kind %q", a.Kind)
		}
		rest := fields[2:]
		if k.arg != "" && len(rest) > 0 {
			a.Arg, rest = rest[0], rest[1:]
		}
		if k.value != "" && len(rest) > 0 {
			v, err := strconv.ParseFloat(rest[0], 64)
			if err != nil || math.IsNaN(v) {
				return fmt.Errorf("assert %s: value %q is not a number", a.Kind, rest[0])
			}
			a.Value, a.HasValue, rest = v, true, rest[1:]
		}
		if len(rest) > 0 {
			return fmt.Errorf("assert %s: too many arguments; want: %s", a.Kind, k.usage(a.Kind))
		}
		sc.Asserts = append(sc.Asserts, a)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return err
}

// ParseFaults parses a fault list — a faults directive's text — into a
// Spec whose master seed is seed unless
// the list sets seed=. Each comma-separated token is a row of the
// fault table or a canned word; empty tokens are skipped. Errors name
// the token and the character it starts at.
func ParseFaults(list string, seed uint64) (faultinject.Spec, error) {
	s := faultinject.Spec{Seed: seed}
	if err := applyFaults(&s, list); err != nil {
		return faultinject.Spec{}, err
	}
	return s, nil
}

// applyFaults folds list's tokens into s, in order. Its errors keep the
// "faultinject:" prefix pandora-sim's usage errors have always printed.
func applyFaults(s *faultinject.Spec, list string) error {
	table, at := faultClauses(s), 0
	for i, raw := range strings.Split(list, ",") {
		tok := strings.TrimSpace(raw)
		key, _, _ := strings.Cut(tok, "=")
		var err error
		switch canned, isWord := faultWords[tok]; {
		case tok == "":
		case isWord:
			err = applyFaults(s, canned)
		case key == "crash" || key == "sink":
			err = fmt.Errorf("%q is a box's fault window, not a link fault: write crash=BOARD:FROM-TO or sinkstall=FROM-TO on the box line", key)
		case !strings.Contains(tok, "="):
			err = fmt.Errorf("unknown fault %q (want loss, corrupt, dup, jitter, stall or all)", tok)
		default:
			err = parseClauses("fault", table, []string{tok})
		}
		if err != nil {
			return fmt.Errorf("faultinject: token %d (%q) at char %d: %w", i+1, tok, at+len(raw)-len(strings.TrimLeft(raw, " \t")), err)
		}
		at += len(raw) + 1 // the comma
	}
	return nil
}

// clauseLine reads a directive line: one field per operand, then the
// clauses of table. An operand is a field, or a *clause for one with a
// min. usage spells the line for errors.
func clauseLine(fields []string, usage string, table []clause, operands ...any) error {
	if len(fields) <= len(operands) {
		return fmt.Errorf("want: %s", usage)
	}
	for i, p := range operands {
		c, ok := p.(*clause)
		if !ok {
			c = &clause{field: p}
		}
		c.key = fields[0]
		if err := c.set(fields[1+i]); err != nil {
			return err
		}
	}
	return parseClauses(fields[0], table, fields[1+len(operands):])
}

func (sc *Scenario) parseEvent(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("want: at DUR OP ...")
	}
	sc.Events = append(sc.Events, Event{Op: fields[2]})
	ev := &sc.Events[len(sc.Events)-1]
	if err := (&clause{key: "event time", field: &ev.At}).set(fields[1]); err != nil {
		return err
	}
	o, ok := ops[ev.Op]
	if !ok {
		return fmt.Errorf("unknown event op %q", ev.Op)
	}
	rest, clauses := fields[3:], []string(nil)
	if n := len(rest); n >= 2 && rest[n-2] == "as" {
		if !o.opens {
			return fmt.Errorf("%s opens no stream, so takes no as REF", ev.Op)
		}
		ev.Ref, rest = rest[n-1], rest[:n-2]
	}
	switch {
	case o.shape == toList && len(rest) >= 3 && rest[1] == "->":
		ev.From, ev.To, clauses = rest[0], strings.Split(rest[2], ","), rest[3:]
	case o.shape == pair && len(rest) == 2:
		ev.From, ev.To = rest[0], []string{rest[1]}
	case o.shape == members && len(rest) >= 2:
		ev.From, ev.To = rest[0], rest[1:]
	case o.shape == refDst && len(rest) == 2:
		ev.Ref, ev.To = rest[0], []string{rest[1]}
	case o.shape == refDsts && len(rest) == 2:
		ev.Ref, ev.To = rest[0], strings.Split(rest[1], ",")
	case o.shape == refOnly && len(rest) == 1:
		ev.Ref = rest[0]
	default:
		return fmt.Errorf("%s wants: %s", ev.Op, o.shape)
	}
	return parseClauses(ev.Op, o.clauses(ev), clauses)
}

// parseBits parses a bit rate with an optional k/M suffix; ok is false
// unless it is a number in [0, 1e15].
func parseBits(v string) (bits int64, ok bool) {
	mult := 1.0
	switch {
	case strings.HasSuffix(v, "M"):
		mult, v = 1_000_000, strings.TrimSuffix(v, "M")
	case strings.HasSuffix(v, "k"):
		mult, v = 1000, strings.TrimSuffix(v, "k")
	}
	n, err := strconv.ParseFloat(v, 64)
	return int64(n * mult), err == nil && n >= 0 && n*mult <= 1e15
}
