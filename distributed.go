package paydemand

import (
	"context"
	"net/http"

	"paydemand/internal/aggregate"
	"paydemand/internal/client"
	"paydemand/internal/server"
	"paydemand/internal/wire"
)

// Distributed deployment: the platform HTTP server and the worker client
// that speak the WST protocol of internal/wire.
type (
	// Platform is the crowdsensing platform HTTP service; it implements
	// http.Handler.
	Platform = server.Platform
	// PlatformConfig parameterizes the platform.
	PlatformConfig = server.Config
	// Client calls a platform's HTTP API.
	Client = client.Client
	// Worker runs the full distributed WST loop against a platform.
	Worker = client.Worker
	// WorkerConfig parameterizes a Worker.
	WorkerConfig = client.WorkerConfig
	// Sensor produces the value a worker uploads when performing a task.
	Sensor = client.Sensor
	// RoundInfo is the platform's published state for one round.
	RoundInfo = wire.RoundInfo
	// SubmitRequest uploads a worker's measurements.
	SubmitRequest = wire.SubmitRequest
	// Measurement is one uploaded sensed value.
	Measurement = wire.Measurement
	// StatusResponse is the platform's metric snapshot.
	StatusResponse = wire.StatusResponse
	// AggregateEstimate is an aggregated task value with its confidence
	// interval.
	AggregateEstimate = aggregate.Estimate
	// ClientOption configures a Client (codec, transport tuning).
	ClientOption = client.Option
	// ClientCodec selects the wire encoding of the hot endpoints.
	ClientCodec = client.Codec
)

// Wire codecs for the hot endpoints.
const (
	// CodecJSON is the default JSON protocol.
	CodecJSON = client.CodecJSON
	// CodecTLV is the compact binary protocol (internal/wire/binary).
	CodecTLV = client.CodecTLV
)

// ClientWithCodec selects the wire codec for the hot endpoints.
func ClientWithCodec(c ClientCodec) ClientOption { return client.WithCodec(c) }

// AggregateValues reduces measurements with the platform's estimator: it
// rejects readings more than three scaled median absolute deviations from
// the median and averages the rest.
func AggregateValues(values []float64) (AggregateEstimate, error) {
	return aggregate.Robust(values)
}

// NewPlatform builds the platform HTTP service.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	return server.New(cfg)
}

// NewClient creates a client for the platform at baseURL. httpClient may
// be nil for a sensible default. Options select the wire codec and tune
// the default transport (see ClientWithCodec).
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	return client.New(baseURL, httpClient, opts...)
}

// NewWorker registers a worker with the platform and returns its runner.
func NewWorker(ctx context.Context, c *Client, cfg WorkerConfig) (*Worker, error) {
	return client.NewWorker(ctx, c, cfg)
}
