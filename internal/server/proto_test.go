package server_test

import (
	"encoding/json"
	"testing"

	"tpjoin/internal/client"
	"tpjoin/internal/obs"
	"tpjoin/internal/server"
)

// TestErrClassWireFormat pins the err_class bytes of every class (and
// success, which omits the field) to the encoding clients were built
// against, and checks that each decodes back to the same class.
func TestErrClassWireFormat(t *testing.T) {
	for _, tc := range []struct {
		class obs.ErrClass
		want  string
	}{
		{obs.ErrClass{}, `{"id":7,"ok":true,"kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassOverloaded, `{"id":7,"ok":false,"error":"x","err_class":"overloaded","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassBudget, `{"id":7,"ok":false,"error":"x","err_class":"budget","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassTimeout, `{"id":7,"ok":false,"error":"x","err_class":"timeout","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassCanceled, `{"id":7,"ok":false,"error":"x","err_class":"canceled","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassUsage, `{"id":7,"ok":false,"error":"x","err_class":"usage","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassPanic, `{"id":7,"ok":false,"error":"x","err_class":"panic","kind":"none","row_count":0,"elapsed_us":0}`},
		{obs.ErrClassError, `{"id":7,"ok":false,"error":"x","err_class":"error","kind":"none","row_count":0,"elapsed_us":0}`},
	} {
		resp := server.Response{ID: 7, OK: true, Kind: server.KindNone}
		if tc.class != (obs.ErrClass{}) {
			resp = server.Response{ID: 7, Error: "x", ErrClass: tc.class, Kind: server.KindNone}
		}
		b, err := json.Marshal(resp)
		if err != nil || string(b) != tc.want {
			t.Errorf("class %q: Marshal = %s, %v\nwant %s", tc.class, b, err, tc.want)
		}
		var back server.Response
		if err := json.Unmarshal(b, &back); err != nil || back.ErrClass != tc.class {
			t.Errorf("class %q: decoded as %q, %v", tc.class, back.ErrClass, err)
		}
		se := &client.ServerError{Msg: "x", ErrClass: back.ErrClass}
		if got, want := client.IsOverloaded(se), tc.class == obs.ErrClassOverloaded; got != want {
			t.Errorf("class %q: IsOverloaded = %t", tc.class, got)
		}
	}
}

// TestErrClassDecodeUnknown: a class this build does not know (a newer
// server's) still decodes, as ErrClassError; an empty one is success.
func TestErrClassDecodeUnknown(t *testing.T) {
	for in, want := range map[string]obs.ErrClass{
		`{"id":1,"err_class":"martian","kind":"none"}`: obs.ErrClassError,
		`{"id":1,"err_class":"","kind":"none"}`:        {},
	} {
		var resp server.Response
		if err := json.Unmarshal([]byte(in), &resp); err != nil || resp.ErrClass != want {
			t.Errorf("%s: ErrClass = %q, %v; want %q", in, resp.ErrClass, err, want)
		}
	}
}
