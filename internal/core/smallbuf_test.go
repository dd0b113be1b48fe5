package core

import (
	"fmt"
	"testing"

	"tpjoin/internal/dataset"
)

// Tiny transfer buffers at the consumer force every overflow/ordering
// corner of direct emission (bursts larger than the buffer, queue
// spill-then-drain, group flushes at buffer boundaries); the stages
// upstream size their hops like the consumer's buffer.
func TestNextBatchTinyBuffers(t *testing.T) {
	r, s := dataset.Meteo(600, 5)
	theta := dataset.MeteoTheta()
	want := Drain(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
	for _, size := range bufferSizes {
		got := drainThrough(LAWAN(LAWAU(OverlapJoin(r, s, theta))), size)
		requireSameWindows(t, fmt.Sprintf("size %d", size), got, want)
	}
}
