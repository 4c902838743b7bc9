package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/kg"
)

// This file is the HTTP side of the load generator: one connection per
// client, the wire shapes of the routes the benchmark drives, and the
// slice of /v1/metrics the layer ledger reads.

// requestTimeout bounds every measured request; a timeout is a failure.
const requestTimeout = 30 * time.Second

// conn is one load-generating client: exactly one TCP connection, used
// synchronously — write the request, read the reply on the caller's own
// goroutine. net/http's client would hand each request to two per-
// connection goroutines; on a two-core box shared with the servers those
// hand-offs are a visible part of a 0.2 ms request and of its jitter.
type conn struct {
	apiKey string // X-API-Key identity, "" sends none
	host   string // host:port the connection is open to
	tcp    net.Conn
	br     *bufio.Reader
	buf    []byte
}

func newConn(apiKey string) *conn { return &conn{apiKey: apiKey} }

func (c *conn) close() {
	if c.tcp != nil {
		c.tcp.Close()
		c.tcp = nil
	}
}

// dial points the connection at base's host, reusing it when it already is.
func (c *conn) dial(base string) error {
	host := strings.TrimPrefix(base, "http://")
	if c.tcp != nil && c.host == host {
		return nil
	}
	c.close()
	tcp, err := net.DialTimeout("tcp", host, requestTimeout)
	if err != nil {
		return err
	}
	c.host, c.tcp, c.br = host, tcp, bufio.NewReader(tcp)
	return nil
}

// answerWire is the subset of the /v1/answer body the benchmark checks.
type answerWire struct {
	Answer           string `json:"answer"`
	Method           string `json:"method"`
	Model            string `json:"model"`
	KG               string `json:"kg"`
	Epoch            uint64 `json:"epoch"`
	LLMCalls         int    `json:"llm_calls"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
}

// reply is one answered request as the client saw it.
type reply struct {
	status   int
	wire     answerWire
	bytes    int
	cacheHit bool
	servedBy string // X-Served-By, "" when not routed
}

// post sends one JSON POST and returns the response and its body. Any
// transport error closes the connection; the next request redials.
func (c *conn) post(base, path string, body []byte, minEpoch uint64) (*http.Response, []byte, error) {
	if err := c.dial(base); err != nil {
		return nil, nil, err
	}
	b := append(c.buf[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if c.apiKey != "" {
		b = append(b, "\r\nX-API-Key: "...)
		b = append(b, c.apiKey...)
	}
	if minEpoch > 0 {
		b = append(b, "\r\nX-Min-Epoch: "...)
		b = strconv.AppendUint(b, minEpoch, 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.buf = b
	resp, raw, err := c.exchange(b)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	return resp, raw, nil
}

func (c *conn) exchange(request []byte) (*http.Response, []byte, error) {
	if err := c.tcp.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, nil, err
	}
	if _, err := c.tcp.Write(request); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp, raw, nil
}

// answerBody renders a /v1/answer request.
func answerBody(question string, src kg.Source) []byte {
	raw, _ := json.Marshal(map[string]string{"question": question, "method": benchMethod, "kg": src.String()})
	return raw
}

// answer asks one question; minEpoch > 0 adds the read-your-writes bound.
// A transport error is returned as err; any HTTP status comes back in the
// reply for the caller to classify.
func (c *conn) answer(base string, body []byte, minEpoch uint64) (reply, error) {
	resp, raw, err := c.post(base, "/v1/answer", body, minEpoch)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, bytes: len(raw), cacheHit: resp.Header.Get("X-Cache") == "hit", servedBy: resp.Header.Get("X-Served-By")}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &r.wire); err != nil {
			return reply{}, fmt.Errorf("decoding answer: %w", err)
		}
	}
	return r, nil
}

// ingestWire is the /v1/ingest response.
type ingestWire struct {
	Added        int    `json:"added"`
	Skipped      int    `json:"skipped"`
	Epoch        uint64 `json:"epoch"`
	BaseTriples  int    `json:"base_triples"`
	DeltaTriples int    `json:"delta_triples"`
}

// ingestBody renders a /v1/ingest request.
func ingestBody(src kg.Source, triples []kg.Triple) []byte {
	type tripleWire struct {
		Subject  string `json:"subject"`
		Relation string `json:"relation"`
		Object   string `json:"object"`
	}
	req := struct {
		KG      string       `json:"kg"`
		Triples []tripleWire `json:"triples"`
	}{KG: src.String(), Triples: make([]tripleWire, len(triples))}
	for i, t := range triples {
		req.Triples[i] = tripleWire{Subject: t.Subject, Relation: t.Relation, Object: t.Object}
	}
	raw, _ := json.Marshal(req)
	return raw
}

// ingest posts one batch.
func (c *conn) ingest(base string, body []byte) (int, ingestWire, error) {
	resp, raw, err := c.post(base, "/v1/ingest", body, 0)
	if err != nil {
		return 0, ingestWire{}, err
	}
	var out ingestWire
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, ingestWire{}, fmt.Errorf("decoding ingest: %w", err)
		}
	}
	return resp.StatusCode, out, nil
}

// serverMetrics is the slice of a node's /v1/metrics the ledger reads.
type serverMetrics struct {
	Methods []struct {
		Method  string `json:"method"`
		Count   int64  `json:"count"`
		Latency struct {
			MeanMS float64 `json:"mean_ms"`
		} `json:"latency"`
	} `json:"methods"`
	Cache struct {
		Size      int   `json:"size"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Singleflight struct {
		Shared int64 `json:"shared"`
	} `json:"singleflight"`
	EmbedMemo struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"embed_memo"`
	Substrates map[string]struct {
		Epoch        uint64 `json:"epoch"`
		BaseTriples  int    `json:"base_triples"`
		DeltaTriples int    `json:"delta_triples"`
		Shards       int    `json:"shards"`
		Ingests      int64  `json:"ingests"`
		Compactions  int64  `json:"compactions"`
		Durability   struct {
			WALBytes    int64 `json:"wal_bytes"`
			WALSyncs    int64 `json:"wal_syncs"`
			Checkpoints int64 `json:"checkpoints"`
		} `json:"durability"`
	} `json:"substrates"`
	Scheduler struct {
		Waited     int64   `json:"waited"`
		MeanWaitMS float64 `json:"mean_wait_ms"`
	} `json:"scheduler"`
	Replication *struct {
		Sources map[string]struct {
			LagRecords uint64 `json:"lag_records"`
			Reconnects uint64 `json:"reconnects"`
		} `json:"sources"`
		CaughtUp bool `json:"caught_up"`
	} `json:"replication"`
}

func scrape(base string) (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(base+"/v1/metrics", &m)
	return m, err
}

// method returns the collector row of the benchmark's method (zero when
// the node has not answered yet).
func (m serverMetrics) method() (count int64, meanMS float64) {
	for _, row := range m.Methods {
		if row.Method == benchMethod {
			return row.Count, row.Latency.MeanMS
		}
	}
	return 0, 0
}
