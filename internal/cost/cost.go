// Package cost provides the deterministic resource model that stands in
// for the paper's PC cluster. Algorithms execute for real and record
// per-worker operation counters; a Machine spec converts the counters into
// simulated seconds. This keeps every experiment reproducible on any host
// while preserving the shape of the paper's results: relative algorithm
// ranking, load skew, crossovers, and the Ethernet-vs-Myrinet contrast.
package cost

// Counters accumulates the work one (simulated) processor performed.
// All figures are raw event counts; the weighting lives in Machine.
type Counters struct {
	// TuplesScanned counts tuples touched by aggregation or partitioning
	// passes (each pass over a tuple counts once).
	TuplesScanned int64
	// Compares counts key-element comparisons from sorts, skip-list
	// searches, and group-boundary detection.
	Compares int64
	// HashOps counts hash-bucket probes (AHT, hash tree, PipeHash).
	HashOps int64
	// Collisions counts extra chain links followed on hash probes.
	Collisions int64
	// CellsWritten counts output cells, and BytesWritten their encoded
	// size; Seeks counts output-stream switches (the depth-first-writing
	// penalty of Fig 3.6).
	CellsWritten int64
	BytesWritten int64
	Seeks        int64
	// BytesRead counts data-set bytes read from the local disk.
	BytesRead int64
	// BytesSent and Messages count network traffic originated by this
	// worker (POL chunk shipping, skip-list shipping).
	BytesSent int64
	Messages  int64
}

// AddCompares implements relation.CompareCounter.
func (c *Counters) AddCompares(n int64) { c.Compares += n }

// Add accumulates another counter set into c.
func (c *Counters) Add(o Counters) {
	c.TuplesScanned += o.TuplesScanned
	c.Compares += o.Compares
	c.HashOps += o.HashOps
	c.Collisions += o.Collisions
	c.CellsWritten += o.CellsWritten
	c.BytesWritten += o.BytesWritten
	c.Seeks += o.Seeks
	c.BytesRead += o.BytesRead
	c.BytesSent += o.BytesSent
	c.Messages += o.Messages
}

// Sub returns c - o, used to attribute a task's delta when workers share a
// counter across tasks.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		TuplesScanned: c.TuplesScanned - o.TuplesScanned,
		Compares:      c.Compares - o.Compares,
		HashOps:       c.HashOps - o.HashOps,
		Collisions:    c.Collisions - o.Collisions,
		CellsWritten:  c.CellsWritten - o.CellsWritten,
		BytesWritten:  c.BytesWritten - o.BytesWritten,
		Seeks:         c.Seeks - o.Seeks,
		BytesRead:     c.BytesRead - o.BytesRead,
		BytesSent:     c.BytesSent - o.BytesSent,
		Messages:      c.Messages - o.Messages,
	}
}

// Machine describes one cluster node plus its NIC/link, mirroring the
// paper's testbed (§4.2, §5.4.1).
type Machine struct {
	Name string
	// CPUOpsPerSec converts weighted elementary operations into seconds.
	CPUOpsPerSec float64
	// DiskBytesPerSec is sequential disk throughput; DiskSeekSec is the
	// cost of one output-stream switch (buffered-file seek, not a raw
	// head seek).
	DiskBytesPerSec float64
	DiskSeekSec     float64
	// NetBytesPerSec and NetLatencySec describe the interconnect as seen
	// by one node.
	NetBytesPerSec float64
	NetLatencySec  float64
}

// Weights for converting counters to elementary CPU operations. Scans and
// cell formatting touch several fields; hash probes compute a hash and
// follow a pointer; chained collisions pay again.
const (
	opsPerTuple     = 4
	opsPerCompare   = 1
	opsPerHashOp    = 5
	opsPerCollision = 5
	opsPerCell      = 6
)

// CPUOps returns the weighted elementary-operation count of c.
func CPUOps(c Counters) float64 {
	return float64(c.TuplesScanned)*opsPerTuple +
		float64(c.Compares)*opsPerCompare +
		float64(c.HashOps)*opsPerHashOp +
		float64(c.Collisions)*opsPerCollision +
		float64(c.CellsWritten)*opsPerCell
}

// Breakdown is simulated time split by resource.
type Breakdown struct {
	CPU  float64
	Disk float64
	Net  float64
}

// Total returns the summed simulated seconds.
func (b Breakdown) Total() float64 { return b.CPU + b.Disk + b.Net }

// Time converts counters to a simulated-time breakdown on machine m. The
// model is additive (no CPU/I/O overlap), like the wall-clock-per-resource
// accounting the paper reports.
func (m Machine) Time(c Counters) Breakdown {
	return Breakdown{
		CPU:  CPUOps(c) / m.CPUOpsPerSec,
		Disk: float64(c.BytesRead+c.BytesWritten)/m.DiskBytesPerSec + float64(c.Seeks)*m.DiskSeekSec,
		Net:  float64(c.BytesSent)/m.NetBytesPerSec + float64(c.Messages)*m.NetLatencySec,
	}
}

// Cluster is a set of machines; workers are mapped to machines round-robin,
// which reproduces the paper's homogeneous sub-clusters when all machines
// are identical and its heterogeneous 16-node cluster when they are not.
type Cluster struct {
	Name     string
	Machines []Machine
}

// Machine returns the machine backing worker w.
func (cl Cluster) Machine(w int) Machine {
	return cl.Machines[w%len(cl.Machines)]
}

// Homogeneous builds an n-node cluster of identical machines.
func Homogeneous(name string, m Machine, n int) Cluster {
	ms := make([]Machine, n)
	for i := range ms {
		ms[i] = m
	}
	return Cluster{Name: name, Machines: ms}
}
