package scenario

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

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
//	at DUR split REF DST
//	at DUR drop REF DST
//	at DUR pull REF DST[,DST...] [wave=N/DUR]
//	at DUR repair REF BOX
//	at DUR close REF
//	at DUR netsend FROM -> TO stream=N vci=N
//	faults FAULTSPEC            (faultinject.ParseSpec grammar, verbatim)
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
	switch fields[0] {
	case "scenario":
		if len(fields) != 2 {
			return fmt.Errorf("want: scenario NAME")
		}
		sc.Name = fields[1]
	case "seed":
		if len(fields) != 2 {
			return fmt.Errorf("want: seed N")
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q is not an unsigned integer", fields[1])
		}
		sc.Seed = n
	case "duration":
		if len(fields) != 2 {
			return fmt.Errorf("want: duration DUR")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return fmt.Errorf("duration %q is not a duration", fields[1])
		}
		sc.Duration = d
	case "box":
		return sc.parseBox(fields)
	case "link":
		return sc.parseLink(fields)
	case "fabric":
		return sc.parseFabric(fields)
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
		return sc.parseFeed(fields)
	case "cross":
		return sc.parseCross(fields)
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
		d := &Degrade{}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("degrade wants shed=DUR hold=DUR, got %q", f)
			}
			dur, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("degrade %s: %q is not a duration", key, val)
			}
			switch key {
			case "shed":
				d.ShedEvery = dur
			case "hold":
				d.Hold = dur
			default:
				return fmt.Errorf("degrade: unknown key %q", key)
			}
		}
		if err := d.check(); err != nil {
			return err
		}
		sc.Degrade = d
	case "balance":
		b := &Balance{}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("balance clause %q wants key=value", f)
			}
			switch key {
			case "budget", "maxmig":
				n, err := strconv.Atoi(val)
				if err != nil {
					return fmt.Errorf("balance %s wants an integer, got %q", key, val)
				}
				if key == "budget" {
					b.Budget = n
				} else {
					b.MaxMigrations = n
				}
			case "interval", "cooldown":
				d, err := time.ParseDuration(val)
				if err != nil {
					return fmt.Errorf("balance %s: %q is not a duration", key, val)
				}
				if key == "interval" {
					b.Interval = d
				} else {
					b.Cooldown = d
				}
			case "migrate":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return fmt.Errorf("balance migrate wants a ratio in [0,1], got %q", val)
				}
				b.Migrate = v
			default:
				return fmt.Errorf("balance: unknown key %q", key)
			}
		}
		if err := b.check(); err != nil {
			return err
		}
		sc.Balance = b
	case "assert":
		if len(fields) < 2 {
			return fmt.Errorf("want: assert KIND [ARG] [VALUE]")
		}
		a := Assert{Kind: fields[1]}
		rest := fields[2:]
		// A trailing number is the value; anything before it the arg.
		if len(rest) > 0 {
			if v, err := strconv.ParseFloat(rest[len(rest)-1], 64); err == nil && !math.IsNaN(v) {
				a.Value, a.HasValue = v, true
				rest = rest[:len(rest)-1]
			}
		}
		if len(rest) > 1 {
			return fmt.Errorf("assert %s: too many arguments", a.Kind)
		}
		if len(rest) == 1 {
			a.Arg = rest[0]
		}
		sc.Asserts = append(sc.Asserts, a)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func (sc *Scenario) parseBox(fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("want: box NAME [clauses]")
	}
	b := Box{Name: fields[1]}
	for _, f := range fields[2:] {
		key, val, hasVal := strings.Cut(f, "=")
		switch key {
		case "interleave":
			b.Interleave = true
		case "sharednet":
			b.SharedNet = true
		case "jitter":
			b.Jitter = true
		case "muting":
			b.Muting = true
		case "interface":
			b.Interface = true
		case "mic":
			parts := strings.Split(val, ":")
			if len(parts) != 3 {
				return fmt.Errorf("mic wants KIND:A:B, got %q", val)
			}
			a, err1 := strconv.ParseUint(parts[1], 10, 64)
			amp, err2 := strconv.ParseUint(parts[2], 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("mic %q: A and B must be unsigned integers", val)
			}
			b.Mic = &Mic{Kind: parts[0], A: a, B: amp}
		case "camera":
			w, h, ok := strings.Cut(val, "x")
			wi, err1 := strconv.Atoi(w)
			hi, err2 := strconv.Atoi(h)
			if !ok || err1 != nil || err2 != nil || wi < 1 || hi < 1 {
				return fmt.Errorf("camera wants WxH, got %q", val)
			}
			b.CameraW, b.CameraH = wi, hi
		case "blocks":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("blocks wants a positive integer, got %q", val)
			}
			b.Blocks = n
		case "netif":
			bits, err := parseBits(val)
			if err != nil {
				return err
			}
			b.NetIfBits = bits
		case "crash":
			board, win, ok := strings.Cut(val, ":")
			if !ok || board == "" {
				return fmt.Errorf("crash wants BOARD:FROM-TO, got %q", val)
			}
			w, err := faultinject.ParseWindow(win)
			if err != nil {
				return err
			}
			if b.Crashes == nil {
				b.Crashes = make(map[string][]faultinject.Window)
			}
			b.Crashes[board] = append(b.Crashes[board], w)
		case "sinkstall":
			w, err := faultinject.ParseWindow(val)
			if err != nil {
				return err
			}
			b.SinkStalls = append(b.SinkStalls, w)
		default:
			if !hasVal {
				return fmt.Errorf("unknown box flag %q", f)
			}
			return fmt.Errorf("unknown box clause %q", key)
		}
	}
	sc.Boxes = append(sc.Boxes, b)
	return nil
}

func (sc *Scenario) parseLink(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("want: link A B bw=BITS [clauses] [/ HOP]...")
	}
	l := Link{From: fields[1], To: fields[2]}
	hop := Hop{}
	flush := func() error {
		if hop.Bandwidth <= 0 {
			return fmt.Errorf("link %s %s: hop needs bw=", l.From, l.To)
		}
		l.Hops = append(l.Hops, hop)
		hop = Hop{}
		return nil
	}
	for _, f := range fields[3:] {
		if f == "/" {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("link clause %q wants key=value", f)
		}
		switch key {
		case "bw":
			bits, err := parseBits(val)
			if err != nil {
				return err
			}
			hop.Bandwidth = bits
		case "prop":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("prop wants a non-negative duration, got %q", val)
			}
			hop.Propagation = d
		case "queue":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("queue wants a non-negative integer, got %q", val)
			}
			hop.QueueLimit = n
		case "loss":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("loss wants a probability, got %q", val)
			}
			hop.Loss = p
		case "lseed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("lseed wants an unsigned integer, got %q", val)
			}
			hop.Seed = n
		default:
			return fmt.Errorf("unknown link clause %q", key)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	sc.Links = append(sc.Links, l)
	return nil
}

func (sc *Scenario) parseFabric(fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("want: fabric NAME [clauses]")
	}
	f := Fabric{Name: fields[1]}
	for _, c := range fields[2:] {
		key, val, ok := strings.Cut(c, "=")
		if !ok {
			return fmt.Errorf("fabric clause %q wants key=value", c)
		}
		switch key {
		case "portbw":
			bits, err := parseBits(val)
			if err != nil {
				return err
			}
			f.PortBandwidth = bits
		case "prop":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("prop wants a non-negative duration, got %q", val)
			}
			f.Propagation = d
		case "egress":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("egress wants a positive integer, got %q", val)
			}
			f.EgressCellLimit = n
		default:
			return fmt.Errorf("unknown fabric clause %q", key)
		}
	}
	sc.Fabrics = append(sc.Fabrics, f)
	return nil
}

func (sc *Scenario) parseFeed(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("want: feed BOX n=N base=VCI")
	}
	fd := Feed{Box: fields[1]}
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("feed clause %q wants key=value", f)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("feed %s wants a non-negative integer, got %q", key, val)
		}
		switch key {
		case "n":
			fd.N = n
		case "base":
			fd.Base = uint32(n)
		default:
			return fmt.Errorf("unknown feed clause %q", key)
		}
	}
	sc.Feeds = append(sc.Feeds, fd)
	return nil
}

func (sc *Scenario) parseCross(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("want: cross A B hop=I vci=N seed=N gap=DUR size=MIN+JITTER")
	}
	c := Cross{From: fields[1], To: fields[2]}
	for _, f := range fields[3:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("cross clause %q wants key=value", f)
		}
		switch key {
		case "hop":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("hop wants a non-negative integer, got %q", val)
			}
			c.Hop = n
		case "vci":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return fmt.Errorf("vci wants an unsigned integer, got %q", val)
			}
			c.VCI = uint32(n)
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("seed wants an unsigned integer, got %q", val)
			}
			c.Seed = n
		case "gap":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("gap %q is not a duration", val)
			}
			c.Gap = d
		case "size":
			mn, jt, ok := strings.Cut(val, "+")
			a, err1 := strconv.Atoi(mn)
			b, err2 := strconv.Atoi(jt)
			if !ok || err1 != nil || err2 != nil {
				return fmt.Errorf("size wants MIN+JITTER, got %q", val)
			}
			c.SizeMin, c.SizeJitter = a, b
		default:
			return fmt.Errorf("unknown cross clause %q", key)
		}
	}
	sc.Cross = append(sc.Cross, c)
	return nil
}

func (sc *Scenario) parseEvent(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("want: at DUR OP ...")
	}
	at, err := time.ParseDuration(fields[1])
	if err != nil {
		return fmt.Errorf("event time %q is not a duration", fields[1])
	}
	ev := Event{At: at, Op: fields[2]}
	rest := fields[3:]
	// Trailing "as REF".
	if n := len(rest); n >= 2 && rest[n-2] == "as" {
		ev.Ref = rest[n-1]
		rest = rest[:n-2]
	}
	switch ev.Op {
	case "audio", "video", "netsend", "tree":
		if len(rest) < 3 || rest[1] != "->" {
			return fmt.Errorf("%s wants: FROM -> TO[,TO...]", ev.Op)
		}
		ev.From = rest[0]
		ev.To = strings.Split(rest[2], ",")
		for _, f := range rest[3:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("%s clause %q wants key=value", ev.Op, f)
			}
			switch key {
			case "rect":
				var vals [4]int
				parts := strings.Split(val, ",")
				if len(parts) != 4 {
					return fmt.Errorf("rect wants X,Y,W,H, got %q", val)
				}
				for i, p := range parts {
					vals[i], err = strconv.Atoi(p)
					if err != nil {
						return fmt.Errorf("rect %q: %q is not an integer", val, p)
					}
				}
				ev.X, ev.Y, ev.W, ev.H = vals[0], vals[1], vals[2], vals[3]
			case "rate":
				n, d, ok := strings.Cut(val, "/")
				num, err1 := strconv.Atoi(n)
				den, err2 := strconv.Atoi(d)
				if !ok || err1 != nil || err2 != nil {
					return fmt.Errorf("rate wants N/D, got %q", val)
				}
				ev.RateNum, ev.RateDen = num, den
			case "segs":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return fmt.Errorf("segs wants a positive integer, got %q", val)
				}
				ev.Segs = n
			case "stream":
				n, err := strconv.ParseUint(val, 10, 32)
				if err != nil {
					return fmt.Errorf("stream wants an unsigned integer, got %q", val)
				}
				ev.Stream = uint32(n)
			case "vci":
				n, err := strconv.ParseUint(val, 10, 32)
				if err != nil {
					return fmt.Errorf("vci wants an unsigned integer, got %q", val)
				}
				ev.VCI = uint32(n)
			case "k":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return fmt.Errorf("k wants a non-negative integer, got %q", val)
				}
				ev.K = n
			case "trees":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return fmt.Errorf("trees wants a positive integer, got %q", val)
				}
				ev.Trees = n
			default:
				return fmt.Errorf("unknown %s clause %q", ev.Op, key)
			}
		}
	case "call":
		if len(rest) != 2 {
			return fmt.Errorf("call wants: A B")
		}
		ev.From, ev.To = rest[0], []string{rest[1]}
	case "conference":
		if len(rest) < 2 {
			return fmt.Errorf("conference wants at least two members")
		}
		ev.From, ev.To = rest[0], rest[1:]
	case "split", "drop", "repair":
		if len(rest) != 2 {
			return fmt.Errorf("%s wants: REF DST", ev.Op)
		}
		ev.Ref, ev.To = rest[0], []string{rest[1]}
	case "pull":
		if len(rest) != 2 {
			return fmt.Errorf("pull wants: REF DST[,DST...]")
		}
		ev.Ref, ev.To = rest[0], strings.Split(rest[1], ",")
	case "close":
		if len(rest) != 1 {
			return fmt.Errorf("close wants: REF")
		}
		ev.Ref = rest[0]
	default:
		return fmt.Errorf("unknown event op %q", ev.Op)
	}
	sc.Events = append(sc.Events, ev)
	return nil
}

// parseBits parses a bit rate with an optional k/M suffix.
func parseBits(v string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "M"):
		mult, v = 1_000_000, strings.TrimSuffix(v, "M")
	case strings.HasSuffix(v, "k"):
		mult, v = 1000, strings.TrimSuffix(v, "k")
	}
	n, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(n) || n < 0 || n*float64(mult) > 1e15 {
		return 0, fmt.Errorf("bit rate wants [FLOAT][k|M] within 1e15, got %q", v)
	}
	return int64(n * float64(mult)), nil
}
