package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// maxExpandedNames caps how many names the ranges of one spec may
// stand for, so a hostile bound ("v[000000..999999]" on every line) is
// an error and never an allocation.
const maxExpandedNames = 100_000

// expand rewrites one tokenised line into the longhand lines it stands
// for (see Parse): name ranges are spelled out and a wave modifier
// becomes one event per wave. A line using neither comes back as is.
// budget is the spec's remaining range-name allowance.
func expand(fields []string, budget *int) ([][]string, error) {
	switch {
	case fields[0] == "box" && len(fields) >= 2:
		names, err := expandNames(fields[1:2], budget)
		lines := make([][]string, len(names))
		for i, n := range names {
			lines[i] = append([]string{"box", n}, fields[2:]...)
		}
		return lines, err
	case fields[0] == "attach" && len(fields) >= 3:
		nodes, err := expandNames(fields[2:], budget)
		return [][]string{append(fields[:2:2], nodes...)}, err
	case fields[0] == "at" && len(fields) >= 4:
		// A trailing "as REF" is not a name position.
		end := len(fields)
		if fields[end-2] == "as" {
			end -= 2
		}
		switch fields[2] {
		case "conference":
			if end > 3 {
				members, err := expandNames(fields[3:end], budget)
				return [][]string{append(append(fields[:3:3], members...), fields[end:]...)}, err
			}
		case "audio", "video", "tree":
			if end > 5 && fields[4] == "->" {
				return expandEvent(fields, 5, end, budget)
			}
		case "pull":
			if end > 4 {
				return expandEvent(fields, 4, end, budget)
			}
		}
	}
	return [][]string{fields}, nil
}

// expandEvent spells out the TO / DST list at fields[list] and, when a
// wave=N/DUR clause sits between it and end (where a trailing "as REF"
// starts), deals the list into one event per wave.
func expandEvent(fields []string, list, end int, budget *int) ([][]string, error) {
	wave := -1
	for i := list + 1; i < end && wave < 0; i++ {
		if strings.HasPrefix(fields[i], "wave=") {
			wave = i
		}
	}
	if wave < 0 && !strings.Contains(fields[list], "..") {
		return [][]string{fields}, nil
	}
	names, err := expandNames(strings.Split(fields[list], ","), budget)
	if err != nil {
		return nil, err
	}
	tail := fields[list+1:]
	per, at, period := len(names), time.Duration(0), time.Duration(0)
	if wave >= 0 {
		val := strings.TrimPrefix(fields[wave], "wave=")
		n, d, _ := strings.Cut(val, "/")
		var err1, err2 error
		per, err1 = strconv.Atoi(n)
		period, err2 = time.ParseDuration(d)
		if err1 != nil || err2 != nil || per < 1 || period <= 0 {
			return nil, fmt.Errorf("wave wants N/DUR with N ≥ 1 and DUR > 0, got %q", val)
		}
		if at, err = time.ParseDuration(fields[1]); err != nil {
			return nil, fmt.Errorf("event time %q is not a duration", fields[1])
		}
		tail = append(fields[list+1:wave:wave], fields[wave+1:]...)
	}
	var lines [][]string
	for i := 0; i < len(names); i += per {
		line := append(make([]string, 0, len(fields)), fields[:list]...)
		if wave >= 0 {
			line[1] = (at + time.Duration(i/per)*period).String()
		}
		line = append(line, strings.Join(names[i:min(i+per, len(names))], ","))
		lines = append(lines, append(line, tail...))
	}
	return lines, nil
}

// expandNames spells out every PREFIX[LO..HI] range among toks and
// keeps plain names as they are.
func expandNames(toks []string, budget *int) ([]string, error) {
	out := make([]string, 0, len(toks))
	for _, tok := range toks {
		open := strings.LastIndexByte(tok, '[')
		lo, hi, isRange := "", "", false
		if open >= 0 && strings.HasSuffix(tok, "]") {
			lo, hi, isRange = strings.Cut(tok[open+1:len(tok)-1], "..")
		}
		if !isRange {
			out = append(out, tok)
			continue
		}
		from, err1 := strconv.ParseUint(lo, 10, 64)
		to, err2 := strconv.ParseUint(hi, 10, 64)
		switch {
		case err1 != nil || err2 != nil:
			return nil, fmt.Errorf("range %q: bounds must be unsigned integers", tok)
		case len(lo) != len(hi):
			return nil, fmt.Errorf("range %q: bounds must have the same number of digits", tok)
		case to < from:
			return nil, fmt.Errorf("range %q: upper bound below lower", tok)
		case to-from >= uint64(*budget):
			return nil, fmt.Errorf("range %q: a spec's ranges may stand for at most %d names", tok, maxExpandedNames)
		}
		*budget -= int(to-from) + 1
		for n := uint64(0); n <= to-from; n++ {
			out = append(out, fmt.Sprintf("%s%0*d", tok[:open], len(lo), from+n))
		}
	}
	return out, nil
}
