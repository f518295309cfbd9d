package gateway

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/pkg/bwaclient"
)

// Sub-stream group splitting: one upstream response carries the ordered
// record groups of a partition's reads. A group is the complete record
// set of one read (single-end, quota 1: one primary record plus its
// secondary/supplementary attachments) or one pair (paired, quota 2). The
// server renders each read's primary record first (core.selectAlignments
// keeps the best region first; an unmapped read is exactly one primary
// record), so group boundaries sit at every quota-th primary: a record
// with flag&0x900 == 0 opens a new group once the current one holds its
// quota.

// samFlagPrimaryMask selects the SECONDARY (0x100) and SUPPLEMENTARY
// (0x800) bits: records with neither are primaries, exactly one per read.
const samFlagPrimaryMask = 0x900

// recordFlag extracts the FLAG field (second tab-separated column) of one
// SAM record line.
func recordFlag(line []byte) (int, error) {
	i := bytes.IndexByte(line, '\t')
	if i < 0 {
		return 0, fmt.Errorf("gateway: SAM record without tabs: %.60q", line)
	}
	rest := line[i+1:]
	j := bytes.IndexByte(rest, '\t')
	if j < 0 {
		j = len(rest)
	}
	flag, err := strconv.Atoi(string(rest[:j]))
	if err != nil {
		return 0, fmt.Errorf("gateway: unparseable SAM flag in %.60q: %w", line, err)
	}
	return flag, nil
}

// splitGroups walks an upstream SAM stream, delivering the leading header
// block (the '@'-prefixed lines before the first record, newline-
// terminated, nil when the stream has none) to onHeader and each complete
// record group to onGroup, in stream order. It returns the number of
// groups delivered and the first stream error; a non-nil error means the
// remainder of the partition is undelivered (the retry path's input). The
// final group only counts once the stream ends cleanly — a truncated
// stream errors instead of passing a half group off as complete.
func splitGroups(st *bwaclient.SAMStream, quota int, onHeader func([]byte), onGroup func([]byte)) (int, error) {
	var header []byte
	headerDone := false
	finishHeader := func() {
		if !headerDone {
			headerDone = true
			if onHeader != nil {
				onHeader(header)
			}
		}
	}
	var group []byte
	groups, primaries := 0, 0
	for st.Next() {
		line := st.Record()
		if !headerDone && len(line) > 0 && line[0] == '@' {
			header = append(header, line...)
			header = append(header, '\n')
			continue
		}
		finishHeader()
		flag, err := recordFlag(line)
		if err != nil {
			return groups, err
		}
		if flag&samFlagPrimaryMask == 0 {
			if primaries == quota {
				onGroup(group)
				groups++
				group, primaries = nil, 0
			}
			primaries++
		} else if primaries == 0 && len(group) == 0 {
			return groups, fmt.Errorf("gateway: group opens with non-primary record %.60q", line)
		}
		group = append(group, line...)
		group = append(group, '\n')
	}
	if err := st.Err(); err != nil {
		return groups, err
	}
	finishHeader()
	if len(group) > 0 {
		if primaries != quota {
			return groups, fmt.Errorf("gateway: final group holds %d primaries, want %d", primaries, quota)
		}
		onGroup(group)
		groups++
	}
	return groups, nil
}
