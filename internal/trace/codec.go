package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// ErrCorrupt is the typed decoding failure of the binary trace reader:
// it carries the byte offset of the damage and a reason, so an API layer
// can tell a client where its upload went bad instead of returning an
// opaque string. It wraps the underlying I/O error (when there is one),
// preserving errors.As/Is chains — notably http.MaxBytesError through
// the lapserved upload path.
type ErrCorrupt struct {
	// Offset is the stream offset in bytes where decoding failed.
	Offset int64
	// Reason describes the corruption.
	Reason string
	// Err is the underlying error, if any.
	Err error
}

func (e *ErrCorrupt) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("trace: corrupt at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("trace: corrupt at byte %d: %s", e.Offset, e.Reason)
}

func (e *ErrCorrupt) Unwrap() error { return e.Err }

// Binary trace format: an 8-byte magic header followed by fixed 11-byte
// little-endian records (addr uint64, flags uint8, instrs uint16). The
// format is deliberately simple: traces are bulk data, not documents.

var binaryMagic = [8]byte{'L', 'A', 'P', 'T', 'R', 'C', '0', '1'}

const recordSize = 11

// MaxRecords returns how many records a binary trace of at most n bytes
// holds.
func MaxRecords(n int64) uint64 {
	if n < int64(len(binaryMagic)) {
		return 0
	}
	return uint64(n-int64(len(binaryMagic))) / recordSize
}

const flagWrite = 1 << 0

// Writer streams accesses to an io.Writer in the binary trace format.
type Writer struct {
	w     *bufio.Writer
	wrote bool
	n     uint64
}

// NewWriter returns a trace writer targeting w. The header is emitted
// lazily on the first Write so that an abandoned writer leaves no bytes.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one access to the trace.
func (tw *Writer) Write(a Access) error {
	if !tw.wrote {
		if _, err := tw.w.Write(binaryMagic[:]); err != nil {
			return fmt.Errorf("trace: writing header: %w", err)
		}
		tw.wrote = true
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], a.Addr)
	if a.Write {
		rec[8] = flagWrite
	}
	binary.LittleEndian.PutUint16(rec[9:11], a.Instrs)
	if _, err := tw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	tw.n++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush drains buffered records to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// WriteAll copies src to w in the binary format and flushes.
func WriteAll(w io.Writer, src Source) (uint64, error) {
	tw := NewWriter(w)
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(a); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

// Reader replays a binary trace from an io.Reader. It implements Source;
// decoding errors surface through Err — always as *ErrCorrupt — after
// Next reports false.
type Reader struct {
	r      *bufio.Reader
	header bool
	off    int64
	err    error
}

// NewReader returns a Source reading the binary trace format from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next implements Source.
func (tr *Reader) Next() (Access, bool) {
	if tr.err != nil {
		return Access{}, false
	}
	if !tr.header {
		if err := fault.Inject(fault.PointTraceDecode, ""); err != nil {
			tr.err = &ErrCorrupt{Offset: tr.off, Reason: "injected fault", Err: err}
			return Access{}, false
		}
		var magic [8]byte
		if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
			// A completely empty input is a valid empty trace (the writer
			// emits its header lazily, so zero records mean zero bytes).
			if err != io.EOF {
				tr.err = &ErrCorrupt{Offset: tr.off, Reason: "reading header", Err: err}
			}
			return Access{}, false
		}
		if magic != binaryMagic {
			tr.err = &ErrCorrupt{Offset: tr.off, Reason: "bad magic; not a LAP binary trace"}
			return Access{}, false
		}
		tr.header = true
		tr.off += int64(len(magic))
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if err != io.EOF {
			tr.err = &ErrCorrupt{Offset: tr.off, Reason: "truncated record", Err: err}
		}
		return Access{}, false
	}
	tr.off += recordSize
	return Access{
		Addr:   binary.LittleEndian.Uint64(rec[0:8]),
		Write:  rec[8]&flagWrite != 0,
		Instrs: binary.LittleEndian.Uint16(rec[9:11]),
	}, true
}

// Err returns the first decoding error encountered, or nil on clean EOF.
// A non-nil error is always a *ErrCorrupt.
func (tr *Reader) Err() error { return tr.err }

// Text format: one access per line, "R|W <hex addr> <instrs>", with '#'
// comments. Intended for hand-written tests and human inspection.

// WriteText renders src to w in the text trace format.
func WriteText(w io.Writer, src Source) (uint64, error) {
	bw := bufio.NewWriter(w)
	var n uint64
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		op := byte('R')
		if a.Write {
			op = 'W'
		}
		if _, err := fmt.Fprintf(bw, "%c %x %d\n", op, a.Addr, a.Instrs); err != nil {
			return n, fmt.Errorf("trace: writing text record: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// ParseText parses the text trace format into a slice of accesses.
func ParseText(r io.Reader) ([]Access, error) {
	sc := bufio.NewScanner(r)
	var out []Access
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 'R|W addr instrs', got %q", lineNo, line)
		}
		var write bool
		switch fields[0] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address: %w", lineNo, err)
		}
		instrs, err := strconv.ParseUint(fields[2], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad instruction count: %w", lineNo, err)
		}
		if instrs == 0 {
			return nil, fmt.Errorf("trace: line %d: instruction count must be >= 1", lineNo)
		}
		out = append(out, Access{Addr: addr, Write: write, Instrs: uint16(instrs)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning text: %w", err)
	}
	return out, nil
}
