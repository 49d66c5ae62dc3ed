package main

import (
	"bytes"
	"errors"
	"io"
	"os/exec"
	"syscall"
)

// rusage reads the process's resource usage; the zero value on failure
// makes the dependent metrics read 0, which the driver rejects.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuSeconds is user plus system CPU time consumed by the process so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// execSelf runs this binary with args, passing its standard error through,
// and returns its standard output and exit code after it has ended.
func execSelf(exe string, args []string, stderr io.Writer) ([]byte, int, error) {
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return out.Bytes(), ee.ExitCode(), nil
	}
	return out.Bytes(), 0, err
}
