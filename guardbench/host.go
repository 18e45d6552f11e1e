package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Host probes: CPU pinning, per-process CPU time, memory high-water mark,
// steal time, kernel drop counters and the fingerprint every result carries.

type cpuMask [16]uint64 // 1024 CPUs

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// pinSelf moves every thread of this process onto cpu. Threads created
// later inherit the mask from their creator, and so does a child process,
// which is how the guard lands on the same vCPU.
func pinSelf(cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	// Twice: a thread the runtime starts during the first pass was cloned
	// from an already-pinned or a not-yet-pinned thread.
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
		}
	}
	return nil
}

// setIdlePriority moves the calling thread to SCHED_IDLE, with
// SCHED_RESET_ON_FORK so processes it starts run at normal priority.
func setIdlePriority() error {
	const schedIdle, resetOnFork = 5, 0x40000000
	var param struct{ priority int32 }
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle|resetOnFork, uintptr(unsafe.Pointer(&param)))
	if e != 0 {
		return fmt.Errorf("sched_setscheduler: %w", e)
	}
	return nil
}

// pickCPU returns the highest CPU in the allowed set.
func pickCPU() (int, int, error) {
	m, err := getAffinity()
	if err != nil {
		return 0, 0, err
	}
	cpu, n := -1, 0
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			n++
		}
	}
	if cpu < 0 {
		return 0, 0, fmt.Errorf("empty CPU affinity set")
	}
	return cpu, n, nil
}

// procCPU sums the run time (ns) of every thread of pid from schedstat.
func procCPU(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", dir, err)
		}
		total += v
	}
	return total, nil
}

// statusKB reads a "<key>: N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, pid)
}

// cpuTimes is one CPU's line of /proc/stat: total and steal jiffies.
func cpuTimes(cpu int) (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	prefix := fmt.Sprintf("cpu%d ", cpu)
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)[1:]
		for i, s := range f {
			v, _ := strconv.ParseInt(s, 10, 64)
			if i < 8 { // user..steal; guest time is already inside user
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return total, steal, nil
	}
	return 0, 0, fmt.Errorf("no %q line in /proc/stat", prefix)
}

// kernelDrops is the loopback backlog drops of every CPU (softnet_stat
// column 2) plus the drop counters of the UDP sockets bound to ports.
func kernelDrops(ports ...uint16) (int64, error) {
	var total int64
	b, err := os.ReadFile("/proc/net/softnet_stat")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		f := strings.Fields(line)
		if len(f) > 1 {
			v, _ := strconv.ParseInt(f[1], 16, 64)
			total += v
		}
	}
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fl := strings.Fields(sc.Text())
		if len(fl) < 13 || fl[0] == "sl" {
			continue
		}
		_, portHex, _ := strings.Cut(fl[1], ":")
		port, _ := strconv.ParseUint(portHex, 16, 16)
		for _, p := range ports {
			if p != 0 && uint16(port) == p {
				v, _ := strconv.ParseInt(fl[len(fl)-1], 10, 64)
				total += v
			}
		}
	}
	return total, sc.Err()
}

// fingerprint describes the host and the code a result came from.
type fingerprint struct {
	NumCPU          int    `json:"num_cpu"`
	AllowedCPUs     int    `json:"allowed_cpus"`
	PinnedCPU       int    `json:"pinned_cpu"`
	BenchGOMAXPROCS int    `json:"bench_gomaxprocs"`
	GuardGOMAXPROCS int    `json:"guard_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Kernel          string `json:"kernel"`
	CPUModel        string `json:"cpu_model"`
	Commit          string `json:"commit"`
	Network         string `json:"network"`
}

func hostFingerprint(cpu, allowed int) fingerprint {
	fp := fingerprint{
		NumCPU:          runtime.NumCPU(),
		AllowedCPUs:     allowed,
		PinnedCPU:       cpu,
		BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Commit:          sourceCommit(),
		Network:         "loopback only: every datagram goes between 127/8 addresses on lo",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// sourceCommit names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of every Go source and module file.
func sourceCommit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// allowedCPUs counts the CPUs in pid's affinity mask. The guard starts
// with no GOMAXPROCS variable, so this is its GOMAXPROCS too.
func allowedCPUs(pid int) (int, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("Cpus_allowed_list:")); ok {
			n := 0
			for _, r := range strings.Split(strings.TrimSpace(string(rest)), ",") {
				lo, hi, found := strings.Cut(r, "-")
				a, _ := strconv.Atoi(lo)
				b := a
				if found {
					b, _ = strconv.Atoi(hi)
				}
				n += b - a + 1
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("no Cpus_allowed_list for pid %d", pid)
}
