package server

// The JSON request schema as structs, for tests that build bodies with
// json.Marshal the way a client written against the schema would.

type jsonRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

type singleRequest struct {
	Reads []jsonRead `json:"reads"`
}

type pairedRequest struct {
	Reads1 []jsonRead `json:"reads1"`
	Reads2 []jsonRead `json:"reads2"`
}
