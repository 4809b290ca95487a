package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// freeUDPAddrs returns n loopback addresses nothing is listening on.
func freeUDPAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback UDP here: %v", err)
		}
		defer c.Close()
		addrs[i] = c.LocalAddr().String()
	}
	return addrs
}

// runNodes writes spec to a file and runs one node per peer in this
// process, each on the spec's box at its index; it returns each node's
// stdout once all have exited 0 with nothing on stderr.
func runNodes(t *testing.T, spec string, n int) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "nodes.scn")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	peers := strings.Join(freeUDPAddrs(t, n), ",")
	var (
		wg             sync.WaitGroup
		stdout, stderr = make([]bytes.Buffer, n), make([]bytes.Buffer, n)
		code           = make([]int, n)
	)
	for i := range code {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code[i] = run([]string{"-index", strconv.Itoa(i), "-peers", peers, "-scenario", path}, &stdout[i], &stderr[i])
		}()
	}
	wg.Wait()
	outs := make([]string, n)
	for i := range code {
		if code[i] != 0 || stderr[i].Len() != 0 {
			t.Fatalf("node %d exited %d, stderr %q", i, code[i], stderr[i].String())
		}
		outs[i] = stdout[i].String()
	}
	return outs
}

// TestTwoNodesHearEachOther runs two nodes in this process for 300 ms
// each. A node is the one place a second goroutine — its socket's
// receiver — works beside a runtime, which has no lock: the queue is
// filled between RunFor quanta by the goroutine that calls RunFor, and
// under -race this is the witness that that is all that happens.
func TestTwoNodesHearEachOther(t *testing.T) {
	outs := runNodes(t, "scenario pair\nduration 300ms\nbox n00 mic=speech:1:12000 jitter\nbox n01 mic=speech:2:12000 jitter\n", 2)
	for i, out := range outs {
		mic := regexp.MustCompile(`mic: (\d+) segments sent`).FindStringSubmatch(out)
		heard := regexp.MustCompile(fmt.Sprintf(`VCI %d \(n%02d\): (\d+) segments`, vciBase+1-i, 1-i)).FindStringSubmatch(out)
		if mic == nil || heard == nil || mic[1] == "0" || heard[1] == "0" {
			t.Errorf("node %d sent or heard nothing:\n%s", i, out)
		}
	}
}

// TestSpecBudgetAdmits: under the spec's `balance budget=1` each of
// three nodes routes one peer stream to its speaker and refuses the
// other.
func TestSpecBudgetAdmits(t *testing.T) {
	outs := runNodes(t, "scenario trio\nduration 100ms\nbox n[00..02] mic=speech:1:12000 jitter\nbalance budget=1\n", 3)
	for i, out := range outs {
		if !strings.Contains(out, "  balance: 1 peer streams admitted, 1 rejected (budget 1)\n") {
			t.Errorf("node %d did not admit one peer stream and reject one:\n%s", i, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-quantum", "0"}, "need a -quantum of more than 0"},
		{[]string{"-quantum", "-10ms"}, "need a -quantum of more than 0"},
		{[]string{"-index", "2"}, "-index 2 out of range for 2 peers"},
		{nil, "need a -scenario spec file to run"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 and %q on stderr", c.args, code, stderr.String(), stdout.String(), c.want)
		}
	}
}
