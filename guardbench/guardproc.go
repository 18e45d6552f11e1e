package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// guardProc is one running guard process: the shipped dnsguardd, or this
// binary re-executed as the traced guard.
type guardProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   chan string
	exited  chan struct{}
	banner  []string
	listen  netip.AddrPort
	metrics string
}

var (
	listenRe  = regexp.MustCompile(`guarding zone \S+ on (\S+) `)
	metricsRe = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startGuard execs argv and waits for its banner: the line naming the
// bound service address and the one naming the metrics listener, which
// dnsguardd prints last.
func startGuard(argv []string) (*guardProc, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = guardEnv()
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", argv[0], err)
	}
	g := &guardProc{cmd: cmd, stdin: stdin, lines: make(chan string, 64), exited: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			g.lines <- sc.Text()
		}
		close(g.lines)
	}()
	go func() {
		cmd.Wait()
		close(g.exited)
	}()
	timeout := time.After(60 * time.Second)
	for g.metrics == "" {
		select {
		case line, ok := <-g.lines:
			if !ok {
				g.stop()
				return nil, fmt.Errorf("%s exited before its banner (%q)", argv[0], g.banner)
			}
			g.banner = append(g.banner, line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				if g.listen, err = netip.ParseAddrPort(m[1]); err != nil {
					g.stop()
					return nil, fmt.Errorf("banner address: %w", err)
				}
			}
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				g.metrics = m[1]
			}
		case <-timeout:
			g.stop()
			return nil, fmt.Errorf("%s printed no banner within a minute", argv[0])
		}
	}
	if !g.listen.IsValid() {
		g.stop()
		return nil, fmt.Errorf("banner %q names no service address", g.banner)
	}
	return g, nil
}

// guardEnv is this process's environment without the variables that would
// override the Go runtime's own choice of GOMAXPROCS and GC pacing.
func guardEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GOGC=") ||
			strings.HasPrefix(kv, "GOMEMLIMIT=") || strings.HasPrefix(kv, "GODEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

func (g *guardProc) pid() int { return g.cmd.Process.Pid }

// scrape reads the guard's /metrics text into a map.
func (g *guardProc) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + g.metrics + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// request writes one control line to the traced guard and returns its
// one-line answer.
func (g *guardProc) request(cmd string) (string, error) {
	if _, err := io.WriteString(g.stdin, cmd+"\n"); err != nil {
		return "", err
	}
	select {
	case line, ok := <-g.lines:
		if !ok {
			return "", fmt.Errorf("traced guard exited")
		}
		return line, nil
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("traced guard did not answer %q", cmd)
	}
}

// stop kills the process and waits until it has exited.
func (g *guardProc) stop() {
	g.cmd.Process.Kill()
	<-g.exited
}

// stopGraceful closes the traced guard's control input, which ends it, and
// kills it only if it does not exit in time.
func (g *guardProc) stopGraceful() {
	g.stdin.Close()
	select {
	case <-g.exited:
	case <-time.After(10 * time.Second):
		g.stop()
	}
}

// normalizedBanner is the banner with ports erased, for comparing the
// traced guard's assembly with dnsguardd's.
func normalizedBanner(lines []string) string {
	return regexp.MustCompile(`:\d+`).ReplaceAllString(strings.Join(lines, "\n"), ":PORT")
}
