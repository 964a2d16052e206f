package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"mntp/internal/ntske"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time
// in these units on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user and system CPU time a process (all threads)
// has consumed, from /proc/<pid>/stat.
func procCPU(pid int) (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return time.Duration(u) * clockTick, time.Duration(s) * clockTick, nil
}

// procCPUNanos is the CPU time (user and system together) of all of a
// process's threads from the scheduler's own nanosecond accounting,
// /proc/<pid>/task/*/schedstat: fine enough to read every half second,
// which the 10 ms ticks of /proc/<pid>/stat are not.
func procCPUNanos(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads (%v)", pid, err)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: unexpected format", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// statusField reads one "Key:\tN ..." number from a /proc status file.
func statusField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// procRSSMB is the process's resident set (VmRSS) in MB, now.
func procRSSMB(pid int) (float64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmRSS")
	return float64(kb) / 1024, err
}

// procPeakRSSMB is the process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// procVoluntarySwitches sums voluntary context switches over the
// process's threads: each is one thread parking (in the netpoller for
// the server) and later being woken.
func procVoluntarySwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads (%v)", pid, err)
	}
	var total int64
	for _, t := range tasks {
		n, err := statusField(t, "voluntary_ctxt_switches")
		if err != nil {
			continue // thread exited between glob and read
		}
		total += n
	}
	return total, nil
}

// selfCPU is the runner's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pinToOneCPU re-executes the runner bound to the first CPU it is
// allowed to run on; the children it starts inherit the binding, and
// every Go runtime involved sizes itself for one core. The reference
// box is a two-vCPU slice of a shared host, where a wake-up that
// crosses vCPUs goes through the hypervisor and costs more, and varies
// more, than the work being measured; on one core runner and server
// take turns, the numbers are those of the code, and they repeat.
func pinToOneCPU() error {
	if os.Getenv("BENCH_PINNED") != "" {
		return nil
	}
	runtime.LockOSThread() // affinity is per thread; Exec below keeps this thread's
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1 024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)/8 && cpu < 0; i++ {
		if mask[i] != 0 {
			bit := bits.TrailingZeros64(mask[i])
			cpu = i*64 + bit
			mask = [16]uint64{}
			mask[i] = 1 << bit
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity: empty CPU set")
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), "BENCH_PINNED="+strconv.Itoa(cpu)))
}

// children tracks every process the runner started, so that an error
// path or a signal can reap them all.
var children struct {
	sync.Mutex
	live map[*serverProc]struct{}
}

func stopAllChildren() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.live))
	for p := range children.live {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// serverProc is one ntpserver child process.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string // bound NTP address
	keAddr string // bound NTS-KE address ("" without -nts)
	tls    *tls.Config
	exited chan struct{}
	once   sync.Once
}

var (
	listenRE   = regexp.MustCompile(`^ntpserver listening on (\S+)`)
	keListenRE = regexp.MustCompile(`^ntpserver NTS-KE listening on (\S+)`)
)

// startServer spawns bin on kernel-chosen free ports (the server
// prints what it bound) and returns once it has announced them. dir
// receives the pinned NTS certificate.
func startServer(bin, dir string, args []string, nts bool) (*serverProc, error) {
	full := append([]string{"-listen", "127.0.0.1:0", "-stats", "0"}, args...)
	certPath := filepath.Join(dir, "ke-cert.pem")
	if nts {
		full = append(full, "-nts", "-nts-listen", "127.0.0.1:0", "-nts-cert-out", certPath)
	}
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	// If the runner is killed outright the child must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*serverProc]struct{})
	}
	children.live[p] = struct{}{}
	children.Unlock()

	type bound struct{ addr, ke string }
	ready := make(chan bound, 1)
	go func() {
		defer close(p.exited)
		var b bound
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if m := keListenRE.FindStringSubmatch(line); m != nil {
				b.ke = m[1]
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				b.addr = m[1]
				ready <- b
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		_ = cmd.Wait()
	}()

	select {
	case b := <-ready:
		p.addr, p.keAddr = b.addr, b.ke
	case <-p.exited:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address within 20s", bin)
	}
	if nts {
		if p.keAddr == "" {
			p.stop()
			return nil, errors.New("ntpserver -nts did not announce an NTS-KE address")
		}
		pool, err := ntske.RootPool(certPath)
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("pinning NTS-KE certificate: %w", err)
		}
		p.tls = &tls.Config{RootCAs: pool}
	}
	return p, nil
}

// stop asks the server to drain (SIGTERM), kills it if the drain
// outlasts 3 s, and returns once the process has been reaped.
func (p *serverProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(3 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		children.Lock()
		delete(children.live, p)
		children.Unlock()
	})
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// buildServer compiles cmd/ntpserver from the checkout at root into
// out and returns how long the build took.
func buildServer(root, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ntpserver")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/ntpserver: %w", err)
	}
	return time.Since(start), nil
}
