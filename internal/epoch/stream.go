package epoch

import (
	"io"

	"butterfly/internal/trace"
)

// This file adapts the streaming trace format (trace.StreamReader/Writer) to
// the epoch grid model. Both adapters satisfy core.BlockSource structurally —
// NumThreads() int and NextEpoch() ([]*Block, error) — without this package
// importing core (core imports epoch).

// RowBuilder converts successive event rows into epoch block rows,
// maintaining the epoch counter and per-thread start offsets so reports can
// point back at stream positions. It is the block-construction half of
// StreamRows, shared with the butterflyd server, which receives rows over
// the wire rather than from a stream decoder.
type RowBuilder struct {
	epoch  int
	starts []int
}

// NewRowBuilder returns a builder for rows of nthreads threads.
func NewRowBuilder(nthreads int) *RowBuilder {
	return &RowBuilder{starts: make([]int, nthreads)}
}

// NumThreads returns the builder's row width.
func (rb *RowBuilder) NumThreads() int { return len(rb.starts) }

// NextEpoch returns the epoch number Row will assign to its next row.
func (rb *RowBuilder) NextEpoch() int { return rb.epoch }

// Row converts one event row (one slice per thread) into the next epoch's
// blocks and advances the counters.
func (rb *RowBuilder) Row(row [][]trace.Event) []*Block {
	blocks := make([]*Block, len(row))
	for t, evs := range row {
		blocks[t] = &Block{Events: evs}
	}
	rb.Stamp(blocks)
	return blocks
}

// Stamp labels blocks — already carrying their events — as the next epoch
// row and advances the counters. It is Row without the block allocation:
// pooled consumers decode events straight into a RowPool row's backings and
// stamp it in place.
func (rb *RowBuilder) Stamp(blocks []*Block) {
	for t, b := range blocks {
		b.Epoch = rb.epoch
		b.Thread = trace.ThreadID(t)
		b.Start = rb.starts[t]
		rb.starts[t] += len(b.Events)
	}
	rb.epoch++
}

// StreamRows turns an incremental stream decoder into successive epoch rows
// of blocks. Start offsets count each thread's streamed events, so reports
// can point back at stream positions.
//
// StreamRows owns the rows it builds and recycles them through a RowPool:
// a driver that registers RecycleRow (core.RunStream does, via
// Incremental.SetRowRecycler) hands each row back once the sliding window
// releases it, and the next decode reuses its blocks and event storage.
// Callers that retain rows simply never recycle them — pooling is then
// inert and every row is freshly allocated.
type StreamRows struct {
	sr    *trace.StreamReader
	rb    *RowBuilder
	pool  RowPool
	evRow [][]trace.Event
}

// NewStreamRows returns a row source over sr.
func NewStreamRows(sr *trace.StreamReader) *StreamRows {
	return &StreamRows{
		sr:    sr,
		rb:    NewRowBuilder(sr.NumThreads()),
		evRow: make([][]trace.Event, sr.NumThreads()),
	}
}

// NumThreads returns the stream's thread count.
func (s *StreamRows) NumThreads() int { return s.sr.NumThreads() }

// NextEpoch decodes the next epoch frame into a row of blocks. It returns
// io.EOF after the stream's end frame.
func (s *StreamRows) NextEpoch() ([]*Block, error) {
	blocks := s.pool.Get(s.sr.NumThreads())
	for t, b := range blocks {
		s.evRow[t] = b.Events[:0]
	}
	row, err := s.sr.NextEpochInto(s.evRow)
	if err != nil {
		s.pool.Put(blocks)
		return nil, err
	}
	for t, b := range blocks {
		b.Events = row[t]
	}
	s.rb.Stamp(blocks)
	return blocks, nil
}

// RecycleRow returns a row obtained from NextEpoch to the pool once the
// caller no longer references it (core.RowRecyclingSource).
func (s *StreamRows) RecycleRow(row []*Block) { s.pool.Put(row) }

// GridRows replays an already-materialized grid row by row, so tests and
// benchmarks can drive core.RunStream with the exact blocks of a grid. Its
// rows are shared with the grid, so it is not a core.RowRecyclingSource.
type GridRows struct {
	g     *Grid
	epoch int
}

// NewGridRows returns a row source replaying g.
func NewGridRows(g *Grid) *GridRows { return &GridRows{g: g} }

// NumThreads returns the grid's thread count.
func (s *GridRows) NumThreads() int { return s.g.NumThreads }

// NextEpoch returns the next grid row, then io.EOF.
func (s *GridRows) NextEpoch() ([]*Block, error) {
	if s.epoch >= s.g.NumEpochs() {
		return nil, io.EOF
	}
	row := s.g.Blocks[s.epoch]
	s.epoch++
	return row, nil
}

// WriteStream encodes a grid in the streaming trace format: one epoch frame
// per grid row, then an end frame. Ground truth is not carried over — the
// stream format is for wire-speed monitoring, where no globally visible
// order exists to embed.
func WriteStream(w io.Writer, g *Grid) error {
	sw, err := trace.NewStreamWriter(w, g.NumThreads)
	if err != nil {
		return err
	}
	row := make([][]trace.Event, g.NumThreads)
	for l := 0; l < g.NumEpochs(); l++ {
		for t := 0; t < g.NumThreads; t++ {
			row[t] = g.Blocks[l][t].Events
		}
		if err := sw.WriteEpoch(row); err != nil {
			return err
		}
	}
	return sw.Close(nil)
}
