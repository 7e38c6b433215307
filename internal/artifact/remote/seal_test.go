package remote

import "mat2c/internal/artifact"

// The tests speak of the wire form of an entry in the protocol's terms:
// a framed entry is its payload sealed by artifact.Seal.

const trailerSize = artifact.TrailerSize

func frame(payload []byte) []byte { return artifact.Seal(nil, payload) }

func unframe(body []byte) ([]byte, error) { return artifact.Unseal(body) }

func framedLen(payload []byte) int64 { return int64(len(payload)) + trailerSize }
