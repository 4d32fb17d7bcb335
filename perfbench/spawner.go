package main

// Children are started by a small helper process, not by the benchmark
// itself. Linux records a child's peak resident set (ru_maxrss) as the
// larger of its own and that of the address space it was cloned from,
// and the benchmark holds the campaign and its references in memory:
// a child it started directly would report the benchmark's size, not
// its own. The helper is the benchmark binary re-executed with
// -spawner before set-up, while the benchmark is still small; it runs
// each child it is sent and returns the child's output and usage.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

type spawnRequest struct {
	Args []string
}

type spawnReply struct {
	Stdout, Stderr []byte
	WallNS, CPUNS  int64
	MaxRSSKB       int64
	Err            string
}

// spawner is the benchmark's handle on the helper process.
type spawner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startSpawner() (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spawner")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(bufio.NewReader(out))}, nil
}

// run runs one child to completion.
func (s *spawner) run(args ...string) (stdout, stderr []byte, u usage, err error) {
	if err := s.enc.Encode(spawnRequest{Args: args}); err != nil {
		return nil, nil, u, fmt.Errorf("spawner: %w", err)
	}
	var rep spawnReply
	if err := s.dec.Decode(&rep); err != nil {
		return nil, nil, u, fmt.Errorf("spawner: %w", err)
	}
	u = usage{Wall: time.Duration(rep.WallNS), CPU: time.Duration(rep.CPUNS), RSSKB: rep.MaxRSSKB}
	if rep.Err != "" {
		err = errors.New(rep.Err)
	}
	return rep.Stdout, rep.Stderr, u, err
}

// close ends the helper and waits for it.
func (s *spawner) close() error {
	s.in.Close()
	return s.cmd.Wait()
}

// spawnerMain is the helper: it runs each request read from standard
// input and writes one reply per request to standard output, until its
// input closes.
func spawnerMain() error {
	dec := json.NewDecoder(bufio.NewReader(os.Stdin))
	enc := json.NewEncoder(os.Stdout)
	for {
		var req spawnRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if len(req.Args) == 0 {
			return errors.New("spawner: empty request")
		}
		var out, errb bytes.Buffer
		cmd := exec.Command(req.Args[0], req.Args[1:]...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		start := time.Now()
		err := cmd.Run()
		rep := spawnReply{WallNS: int64(time.Since(start)), Stdout: out.Bytes(), Stderr: errb.Bytes()}
		if ps := cmd.ProcessState; ps != nil {
			rep.CPUNS = int64(ps.UserTime() + ps.SystemTime())
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				rep.MaxRSSKB = ru.Maxrss // kilobytes on Linux
			}
		}
		if err != nil {
			rep.Err = fmt.Sprintf("%s: %v: %s", req.Args[0], err, bytes.TrimSpace(errb.Bytes()))
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
}
