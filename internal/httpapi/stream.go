package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Streamer returns the element count of a document whose trailing
// array may be too large to materialize — the IDs of a MostShared, the
// entries of a MostSharedPartial, the rows of a QueryResult — and the
// encoder that writes it element by element. The streamed bytes are
// identical to Marshal(doc), so streamed and cached responses stay
// textually comparable. Any other document reports (0, nil).
func Streamer(doc any) (int, func(io.Writer) error) {
	switch d := doc.(type) {
	case MostShared:
		return len(d.IDs), func(w io.Writer) error {
			return streamArray(w, fmt.Sprintf(`{"n":%d,"ids":[`, d.N), len(d.IDs),
				func(i int) any { return d.IDs[i] })
		}
	case MostSharedPartial:
		return len(d.Entries), func(w io.Writer) error {
			return streamArray(w, fmt.Sprintf(`{"n":%d,"entries":[`, d.N), len(d.Entries),
				func(i int) any { return d.Entries[i] })
		}
	case *QueryResult:
		return len(d.Rows), func(w io.Writer) error {
			cols, err := json.Marshal(d.Columns)
			if err != nil {
				return err
			}
			return streamArray(w, fmt.Sprintf(`{"columns":%s,"n":%d,"rows":[`, cols, d.N), len(d.Rows),
				func(i int) any { return d.Rows[i] })
		}
	}
	return 0, nil
}

// streamArray writes head (the document up to its array's opening
// bracket), the n elements comma-separated, and the closing "]}" plus
// Marshal's trailing newline, through a buffered writer.
func streamArray(w io.Writer, head string, n int, elem func(i int) any) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	if _, err := bw.WriteString(head); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		b, err := json.Marshal(elem(i))
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
