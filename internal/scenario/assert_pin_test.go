package scenario

import "testing"

// assertPinSpec streams to three destinations ("few", each listed) and to
// nine ("many", summarised) over a lossy, jittery fabric, and asks each
// per-destination assert once in a form that passes and once in one
// that fails.
const assertPinSpec = `scenario assert-pin
seed 5
duration 800ms
box s mic=tone:400:8000
box t mic=tone:300:8000
box d[1..9]
fabric fab portbw=100M
attach fab s t d[1..9]
faults burst=0.03/3,jitter=1ms/3ms
at 0s audio s -> d1,d2,d3 as few
at 0s audio t -> d[1..9] as many
assert min-segments few 150
assert min-segments few 1000
assert min-segments many 150
assert min-segments many 1000
assert max-lost few 100
assert max-lost few 0
assert max-lost many 100
assert max-lost many 0
assert max-silence-pct few 50
assert max-silence-pct few 0
assert max-silence-pct many 50
assert max-silence-pct many 0
assert min-segments few 180
assert max-lost few 15
assert max-silence-pct few 1.2
assert min-segments many 170
assert max-lost many 30
assert max-silence-pct many 2.5
`

// TestPerDestinationAssertLines pins the lines min-segments, max-lost and
// max-silence-pct print for a stream of three destinations and one of
// nine, passing, failing, and failing at some destinations only.
func TestPerDestinationAssertLines(t *testing.T) {
	sum, err := execute(MustParse(assertPinSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.String(); got != assertPinWant {
		t.Errorf("summary:\n%s\nwant:\n%s", got, assertPinWant)
	}
}

const assertPinWant = `scenario assert-pin: 18 asserts
  ok   min-segments few: d1=176 d2=186 d3=188 (limit 150)
  FAIL min-segments few: d1=176 d2=186 d3=188 (limit 1000)
  ok   min-segments many: 9 dests, min=164 (limit 150)
  FAIL min-segments many: 9 dests, min=164 (limit 1000)
  ok   max-lost few: d1=22 d2=12 d3=9 (limit 100)
  FAIL max-lost few: d1=22 d2=12 d3=9 (limit 0)
  ok   max-lost many: 9 dests, max=35 (limit 100)
  FAIL max-lost many: 9 dests, max=35 (limit 0)
  ok   max-silence-pct few: d1=1.14% d2=1.34% d3=1.06% (limit 50)
  FAIL max-silence-pct few: d1=1.14% d2=1.34% d3=1.06% (limit 0)
  ok   max-silence-pct many: 9 dests, max=2.66% (limit 50)
  FAIL max-silence-pct many: 9 dests, max=2.66% (limit 0)
  FAIL min-segments few: d1=176 d2=186 d3=188 (limit 180)
  FAIL max-lost few: d1=22 d2=12 d3=9 (limit 15)
  FAIL max-silence-pct few: d1=1.14% d2=1.34% d3=1.06% (limit 1.2)
  FAIL min-segments many: 9 dests, min=164 (limit 170)
  FAIL max-lost many: 9 dests, max=35 (limit 30)
  FAIL max-silence-pct many: 9 dests, max=2.66% (limit 2.5)
scenario assert-pin: FAIL
`
