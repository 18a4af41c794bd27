// Package errfix is the errsink fixture: discarded errors on the
// durability surface (named writers, write-path Close, writer-parameter
// prints) are findings; cleanup-path and read-path discards are not.
package errfix

import (
	"fmt"
	"io"
	"os"
)

// AtomicWriteFile mimics the module's durability entry point; its own
// cleanup-path Close is exempt because the write error is already on its
// way out.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func persist(path string) {
	AtomicWriteFile(path, func(w io.Writer) error { return nil }) // want "error from errfix.AtomicWriteFile discarded; the durability surface must be checked"
}

type appendLog struct{ f *os.File }

func (l *appendLog) Append(line string) error {
	_, err := l.f.WriteString(line)
	return err
}

func (l *appendLog) Flush() error { return l.f.Sync() }

func useAppendLog(l *appendLog) {
	l.Append("x") // want "error from \\*appendLog.Append discarded; the durability surface must be checked"
	_ = l.Flush() // want "error from \\*appendLog.Flush discarded; the durability surface must be checked"
	if err := l.Append("y"); err != nil {
		_ = err
	}
}

func writeThenClose(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	fmt.Fprintln(f, "data")
	f.Close() // want "error from Close discarded on a write path: the final flush error is lost"
}

// closeAtChainEnd drops the Close error six assignments away from the
// Create: the write path must follow the whole alias chain, whatever order
// the analyzer meets the assignments in.
func closeAtChainEnd(path string) {
	a, err := os.Create(path)
	if err != nil {
		return
	}
	b := a
	c := b
	d := c
	e := d
	g := e
	h := g
	h.Close() // want "error from Close discarded on a write path: the final flush error is lost"
}

func readThenClose(path string) []byte {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	buf := make([]byte, 16)
	f.Read(buf)
	return buf
}

type sink struct{ f *os.File }

func (s *sink) Close() error { return s.f.Close() }

func dropModuleClose(s *sink) {
	s.Close() // want "error from \\*sink.Close discarded; a module Close returning error does so deliberately"
}

// render is a durability writer (io.Writer parameter, error result): an
// unchecked print loses the write error the signature promises to report.
func render(w io.Writer, rows []string) error {
	fmt.Fprintln(w, "header") // want "write error to the w parameter discarded inside a durability writer; use the sticky errWriter pattern"
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, r); err != nil {
			return err
		}
	}
	return nil
}
