package client

// Wire types of the v1 API. These mirror the server's response structs
// field for field; the client package deliberately does not import the
// server so it stays extractable as a standalone module.

// MemoryStats is the resident footprint of a dataset's served
// snapshot, broken down by structure.
type MemoryStats struct {
	GraphBytes   int64   `json:"graph_bytes"`
	ResultBytes  int64   `json:"result_bytes,omitempty"`
	IndexBytes   int64   `json:"index_bytes,omitempty"`
	TipBytes     int64   `json:"tip_bytes,omitempty"`
	TotalBytes   int64   `json:"total_bytes"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
}

// Dataset is one row of the dataset listing: the registered graph, its
// serving version and decomposition status.
type Dataset struct {
	Name        string      `json:"name"`
	Upper       int         `json:"upper"`
	Lower       int         `json:"lower"`
	Edges       int         `json:"edges"`
	Version     int64       `json:"version"`
	Pending     int         `json:"pending,omitempty"`
	Status      string      `json:"status"`
	Algorithm   string      `json:"algorithm,omitempty"`
	MaxPhi      int64       `json:"max_phi,omitempty"`
	Levels      int         `json:"levels,omitempty"`
	DecomposeMS int64       `json:"decompose_ms,omitempty"`
	JobID       int64       `json:"job_id,omitempty"`
	Memory      MemoryStats `json:"memory"`
	Error       string      `json:"error,omitempty"`
}

// JobInfo is a point-in-time read of one decomposition job. Done and
// Total count edges whose bitruss number is finalized; polling a
// running job observes them advance through the peel.
type JobInfo struct {
	ID        int64   `json:"id"`
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	State     string  `json:"state"` // running, done, failed
	Stage     string  `json:"stage"` // counting, index, extract, peel, done
	Done      int64   `json:"done"`
	Total     int64   `json:"total"`
	Percent   float64 `json:"percent"`
	ElapsedMS int64   `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// JobList is the dataset's retained decomposition jobs, oldest first.
type JobList struct {
	Dataset string    `json:"dataset"`
	Jobs    []JobInfo `json:"jobs"`
}

// CreateDatasetRequest registers a dataset from a server-side file
// path or an inline edge list (mutually exclusive).
type CreateDatasetRequest struct {
	Name     string   `json:"name"`
	Path     string   `json:"path,omitempty"`
	OneBased bool     `json:"one_based,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
}

// DecomposeRequest configures one decomposition run.
type DecomposeRequest struct {
	Algorithm string  `json:"algorithm,omitempty"`
	Tau       float64 `json:"tau,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Ranges    int     `json:"ranges,omitempty"`
	// Wait blocks the call until the decomposition finishes; otherwise
	// it runs in the background and WaitReady polls for completion.
	Wait bool `json:"wait,omitempty"`
}

// MutateRequest stages edge insertions and deletions as layer-local
// (upper, lower) pairs.
type MutateRequest struct {
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
	// Wait blocks until the mutation is part of the served snapshot.
	Wait bool `json:"wait,omitempty"`
}

// MutateResult reports the outcome of a mutation request.
type MutateResult struct {
	Dataset    string `json:"dataset"`
	Version    int64  `json:"version"`
	Pending    int    `json:"pending,omitempty"`
	Applied    bool   `json:"applied"`
	Inserted   int    `json:"inserted,omitempty"`
	Deleted    int    `json:"deleted,omitempty"`
	Maintained bool   `json:"maintained,omitempty"`
	FellBack   bool   `json:"fell_back,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	ChangedPhi int    `json:"changed_phi,omitempty"`
	ApplyMS    int64  `json:"apply_ms"`
}

// VersionInfo is the served snapshot version with staging state.
type VersionInfo struct {
	Dataset      string          `json:"dataset"`
	Version      int64           `json:"version"`
	Pending      int             `json:"pending"`
	Status       string          `json:"status"`
	LastMutation *MutationRecord `json:"last_mutation,omitempty"`
}

// MutationRecord describes the last applied mutation batch (one
// applier epoch), including the per-phase wall times of the epoch
// pipeline.
type MutationRecord struct {
	Epoch      int64 `json:"epoch"`
	Version    int64 `json:"version"`
	Requests   int   `json:"requests"`
	Inserted   int   `json:"inserted"`
	Deleted    int   `json:"deleted"`
	Maintained bool  `json:"maintained"`
	FellBack   bool  `json:"fell_back"`
	Candidates int   `json:"candidates"`
	ChangedPhi int   `json:"changed_phi"`
	Workers    int   `json:"workers"`
	StageMS    int64 `json:"stage_ms"`
	DeltaMS    int64 `json:"delta_ms"`
	PeelMS     int64 `json:"peel_ms"`
	IndexMS    int64 `json:"index_ms"`
	PublishMS  int64 `json:"publish_ms"`
	ApplyMS    int64 `json:"apply_ms"`
}

// Layer selects the side of the bipartition in vertex-addressed
// queries.
type Layer string

const (
	UpperLayer Layer = "upper"
	LowerLayer Layer = "lower"
)

// Community is one k-bitruss connected component with layer-local
// vertex indices.
type Community struct {
	K     int64 `json:"k"`
	Size  int   `json:"size"`
	Upper []int `json:"upper"`
	Lower []int `json:"lower"`
	Edges []int `json:"edges"`
}

// versioned lets pinnedGet enforce the handle's version pin over any
// snapshot-stamped response.
type versioned interface{ version() int64 }

// EdgeResult answers a φ or support lookup for one edge.
type EdgeResult struct {
	Dataset string `json:"dataset"`
	Version int64  `json:"version"`
	U       int64  `json:"u"`
	V       int64  `json:"v"`
	Phi     *int64 `json:"phi,omitempty"`
	Support *int64 `json:"support,omitempty"`
}

func (r *EdgeResult) version() int64 { return r.Version }

// LevelsResult lists the populated bitruss levels, ascending.
type LevelsResult struct {
	Dataset string  `json:"dataset"`
	Version int64   `json:"version"`
	Levels  []int64 `json:"levels"`
}

func (r *LevelsResult) version() int64 { return r.Version }

// CommunitiesOptions selects one page of a community listing. Top and
// Limit are mutually exclusive: Top asks for the n largest communities
// in one response (no cursor), Limit sets the page size of cursor
// pagination. All zero requests the server's default page; use
// CommunitiesAll to walk the full listing.
type CommunitiesOptions struct {
	Top    int
	Limit  int
	Cursor string
}

// CommunitiesPage is one page of the ranked community listing.
type CommunitiesPage struct {
	Dataset     string      `json:"dataset"`
	Version     int64       `json:"version"`
	K           int64       `json:"k"`
	Total       int         `json:"total"`
	Communities []Community `json:"communities"`
	NextCursor  string      `json:"next_cursor,omitempty"`
}

func (r *CommunitiesPage) version() int64 { return r.Version }

// CommunityOfResult resolves a vertex to its community at level k.
type CommunityOfResult struct {
	Dataset   string    `json:"dataset"`
	Version   int64     `json:"version"`
	K         int64     `json:"k"`
	Community Community `json:"community"`
}

func (r *CommunityOfResult) version() int64 { return r.Version }

// KBitrussEdge is one edge of a k-bitruss listing.
type KBitrussEdge struct {
	U   int64 `json:"u"`
	V   int64 `json:"v"`
	Phi int64 `json:"phi"`
}

// KBitrussResult lists the edges of the k-bitruss.
type KBitrussResult struct {
	Dataset string         `json:"dataset"`
	Version int64          `json:"version"`
	K       int64          `json:"k"`
	Edges   []KBitrussEdge `json:"edges"`
}

func (r *KBitrussResult) version() int64 { return r.Version }

// BatchQuery is one lookup of a batch request; build with the
// constructors so only the relevant fields are set.
type BatchQuery struct {
	Op     string `json:"op"`
	U      *int   `json:"u,omitempty"`
	V      *int   `json:"v,omitempty"`
	Layer  string `json:"layer,omitempty"`
	Vertex *int   `json:"vertex,omitempty"`
	K      *int64 `json:"k,omitempty"`
}

// BatchPhi queries the bitruss number of edge (u, v).
func BatchPhi(u, v int) BatchQuery {
	return BatchQuery{Op: "phi", U: &u, V: &v}
}

// BatchSupport queries the butterfly support of edge (u, v).
func BatchSupport(u, v int) BatchQuery {
	return BatchQuery{Op: "support", U: &u, V: &v}
}

// BatchCommunityOf resolves the community containing (layer, vertex)
// at level k.
func BatchCommunityOf(layer Layer, vertex int, k int64) BatchQuery {
	return BatchQuery{Op: "community_of", Layer: string(layer), Vertex: &vertex, K: &k}
}

// BatchItem is one answer of a batch response: the echoed query plus
// exactly one result field, or Error for per-item failures.
type BatchItem struct {
	Op        string     `json:"op"`
	U         *int       `json:"u,omitempty"`
	V         *int       `json:"v,omitempty"`
	Layer     string     `json:"layer,omitempty"`
	Vertex    *int       `json:"vertex,omitempty"`
	K         *int64     `json:"k,omitempty"`
	Phi       *int64     `json:"phi,omitempty"`
	Support   *int64     `json:"support,omitempty"`
	Community *Community `json:"community,omitempty"`
	Error     *ErrorInfo `json:"error,omitempty"`
}

// BatchResult is the batch response: every item answered from the one
// snapshot version reported.
type BatchResult struct {
	Dataset string      `json:"dataset"`
	Version int64       `json:"version"`
	Count   int         `json:"count"`
	Results []BatchItem `json:"results"`
}
