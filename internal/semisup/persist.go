package semisup

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/preprocess"
)

// modelGob is the wire form of a Model: the fitted preprocessing chain,
// the cluster centroids (all clustering algorithms here predict by
// nearest centroid, so centroids suffice), and the cluster labels. A
// loaded model predicts and relabels (ports) exactly like the original;
// only retraining from scratch requires the original data.
type modelGob struct {
	Cfg         Config
	Pipeline    preprocess.Chain
	Centroids   [][]float64
	Labels      []int
	Fallback    int
	Classes     int
	MemberCount []int
}

func init() {
	// The pipeline is a slice of Transformer interfaces; gob needs the
	// concrete types registered.
	gob.Register(&preprocess.SkewTransform{})
	gob.Register(&preprocess.MinMaxScaler{})
	gob.Register(&preprocess.PCA{})
}

// Save serialises the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	frozen := cluster.NewFrozen(m.clust)
	payload := modelGob{
		Cfg:         m.cfg,
		Pipeline:    m.pipeline,
		Centroids:   frozen.Centroids,
		Labels:      m.labels,
		Fallback:    m.fallback,
		Classes:     m.classes,
		MemberCount: m.memberCount,
	}
	if err := gob.NewEncoder(w).Encode(payload); err != nil {
		return fmt.Errorf("semisup: encoding model: %w", err)
	}
	return nil
}

// GobEncode lets a *Model be embedded directly in a larger gob payload
// (the serve package's model artifact); it delegates to Save.
func (m *Model) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode is the inverse of GobEncode, delegating to Load.
func (m *Model) GobDecode(data []byte) error {
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*m = *loaded
	return nil
}

// Load deserialises a model written by Save. The result predicts,
// explains and relabels like the original.
func Load(r io.Reader) (*Model, error) {
	var payload modelGob
	if err := gob.NewDecoder(r).Decode(&payload); err != nil {
		return nil, fmt.Errorf("semisup: decoding model: %w", err)
	}
	if len(payload.Centroids) == 0 {
		return nil, fmt.Errorf("semisup: decoded model has no clusters")
	}
	if len(payload.Labels) != len(payload.Centroids) ||
		len(payload.MemberCount) != len(payload.Centroids) {
		return nil, fmt.Errorf("semisup: decoded model is inconsistent: %d clusters, %d labels, %d sizes",
			len(payload.Centroids), len(payload.Labels), len(payload.MemberCount))
	}
	if payload.Classes < 2 {
		return nil, fmt.Errorf("semisup: decoded model has %d classes", payload.Classes)
	}
	// Train always fits a pipeline, and the clusters live in its output
	// space: a centroid of another width would panic in Predict.
	if len(payload.Pipeline) == 0 {
		return nil, fmt.Errorf("semisup: decoded model has no preprocessing pipeline")
	}
	if err := payload.Pipeline.Validate(); err != nil {
		return nil, fmt.Errorf("semisup: decoded model: %w", err)
	}
	out := payload.Pipeline.OutDim()
	for c, centroid := range payload.Centroids {
		if len(centroid) != out {
			return nil, fmt.Errorf("semisup: decoded centroid %d has %d dimensions, the pipeline emits %d", c, len(centroid), out)
		}
	}
	return &Model{
		cfg:         payload.Cfg,
		pipeline:    payload.Pipeline,
		clust:       &cluster.Frozen{Centroids: payload.Centroids},
		labels:      payload.Labels,
		fallback:    payload.Fallback,
		classes:     payload.Classes,
		memberCount: payload.MemberCount,
	}, nil
}
