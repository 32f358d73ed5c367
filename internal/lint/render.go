package lint

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ast"
)

// A File is one source a report's positions point into. A lint run over
// several files reads them as one, each numbered on from the last line
// of the one before, so Lines, how many lines the file spans, tells a
// position in it from one in the next. The last file's Lines is unread.
type File struct {
	Name  string
	Lines int
}

// WriteText renders the report in the conventional compiler-diagnostic
// format, one finding per line:
//
//	name:line:col: severity: [check/id] message
//
// name is the file the finding points into, and line its line there; a
// finding with no position names the first file. The name is omitted
// when empty, as is the position when a finding has none. A position
// the message cites (Finding.Ref) is rendered at its line in its own
// file, under that file's name when it is not the finding's. A summary
// line follows the findings.
func WriteText(w io.Writer, rep *Report, files ...File) error {
	for _, f := range rep.Findings {
		name, line := locate(files, f.Pos())
		msg := f.Message
		if f.Ref.IsValid() {
			refName, refLine := locate(files, f.Ref)
			ref := strconv.Itoa(refLine) + ":" + strconv.Itoa(f.Ref.Col)
			if refName != name {
				ref = refName + ":" + ref
			}
			msg = strings.TrimSuffix(msg, f.Ref.String()) + ref
		}
		prefix := ""
		if name != "" {
			prefix = name + ":"
		}
		if f.Pos().IsValid() {
			prefix += strconv.Itoa(line) + ":" + strconv.Itoa(f.Col) + ":"
		}
		if prefix != "" {
			prefix += " "
		}
		if _, err := fmt.Fprintf(w, "%s%s: [%s/%s] %s\n", prefix, f.Severity, f.Check, f.ID, msg); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d error(s), %d warning(s), %d info(s)\n", rep.Errors, rep.Warnings, rep.Infos)
	return err
}

// locate returns the name of the file pos falls in and its line there;
// a position that is not valid falls in the first file.
func locate(files []File, pos ast.Pos) (name string, line int) {
	line = pos.Line
	for i, file := range files {
		name = file.Name
		if !pos.IsValid() || i == len(files)-1 || line <= file.Lines {
			break
		}
		line -= file.Lines
	}
	return name, line
}
