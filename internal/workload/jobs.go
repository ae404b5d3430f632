package workload

import "fmt"

// WordCountJob describes one WordCount run for the MapReduce substrate,
// following the paper's "WordCount(x,y,z)" notation: input file size, split
// size, and per-worker task parallelism.
type WordCountJob struct {
	Name string
	// InputBytes is the total input size.
	InputBytes int64
	// SplitBytes is the input split size; the job runs
	// ceil(InputBytes/SplitBytes) map tasks.
	SplitBytes int64
	// Parallelism is the number of concurrent task slots per worker.
	Parallelism int
	// SpillRatio scales intermediate output per task relative to its split
	// (WordCount emits roughly its input size before combining).
	SpillRatio float64
	// Reducers is the number of reduce tasks (0 = map-only).
	Reducers int
}

// MapTasks returns the number of map tasks.
func (j WordCountJob) MapTasks() int {
	if j.SplitBytes <= 0 {
		return 0
	}
	n := j.InputBytes / j.SplitBytes
	if j.InputBytes%j.SplitBytes != 0 {
		n++
	}
	return int(n)
}

// IntermediateBytesPerTask returns the local-disk footprint of one map task.
func (j WordCountJob) IntermediateBytesPerTask() int64 {
	ratio := j.SpillRatio
	if ratio == 0 {
		ratio = 1
	}
	split := j.SplitBytes
	if last := j.InputBytes % j.SplitBytes; last != 0 && j.MapTasks() == 1 {
		split = last
	}
	return int64(float64(split) * ratio)
}

func (j WordCountJob) String() string {
	return fmt.Sprintf("%s: WordCount(%dMB input, %dMB split, ×%d) → %d tasks",
		j.Name, j.InputBytes>>20, j.SplitBytes>>20, j.Parallelism, j.MapTasks())
}
