package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// opaque is a payload testCodec has no encoding for.
type opaque struct{}

// TestTCPSingleWireFormat pins what the one wire format does with what it
// cannot carry: a payload without an encoding fails its own call and nothing
// else, and a frame tagged anything but 0x01 ends the connection.
func TestTCPSingleWireFormat(t *testing.T) {
	t.Run("unencodable", func(t *testing.T) {
		h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
			if req.(echoReq).Msg == "opaque" {
				return opaque{}, nil
			}
			return echo(ctx, req)
		})
		srv, err := NewTCPServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli := NewTCPClient()
		defer cli.Close()
		conn, err := cli.conn(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name       string
			req        any
			wantRemote bool // the error crossed the wire
		}{
			{"request", opaque{}, false},
			{"response", echoReq{Msg: "opaque"}, true},
		} {
			t.Run(c.name, func(t *testing.T) {
				_, err := cli.Call(context.Background(), srv.Addr(), c.req)
				var re *RemoteError
				if c.wantRemote {
					if !errors.As(err, &re) || !strings.Contains(re.Msg, ErrUnsupportedType.Error()) {
						t.Fatalf("err = %v, want a RemoteError naming the unsupported type", err)
					}
				} else if !errors.Is(err, ErrUnsupportedType) || errors.As(err, &re) {
					t.Fatalf("err = %v, want a local ErrUnsupportedType", err)
				}
				if n := cli.pendingCount(); n != 0 {
					t.Fatalf("%d pending entries after the failed call", n)
				}
				resp, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "next"})
				if err != nil || resp.(echoResp).Msg != "echo:next" {
					t.Fatalf("next call: resp = %+v, err = %v", resp, err)
				}
				if now, err := cli.conn(srv.Addr()); err != nil || now != conn {
					t.Fatalf("the failed call cost the connection (err = %v)", err)
				}
			})
		}
	})

	for _, tag := range []byte{0x00, 0x02, 0xff} {
		badFrame := []byte{0, 0, 0, 2, tag, 0}

		t.Run(fmt.Sprintf("server-closes-on-tag-%#x", tag), func(t *testing.T) {
			srv, err := NewTCPServer("127.0.0.1:0", echo)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(badFrame); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read %d bytes, err = %v; want the server to close the connection", n, err)
			}
		})

		t.Run(fmt.Sprintf("client-drops-on-tag-%#x", tag), func(t *testing.T) {
			// A peer that answers its first connection's first two requests
			// with one bad-tag frame once released, and serves every later
			// connection properly.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan struct{}, 8) // one token per connection; the test makes two
			release := make(chan struct{})
			go func() {
				for first := true; ; first = false {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					accepted <- struct{}{}
					go func(first bool) {
						defer conn.Close()
						br := bufio.NewReader(conn)
						if first {
							for i := 0; i < 2; i++ {
								if _, err := readFrame(br); err != nil {
									return
								}
							}
							<-release
							_, _ = conn.Write(badFrame)
							// Stay open until the client hangs up: the tag, not
							// an EOF, must be what costs it the connection.
							_, _ = readFrame(br)
							return
						}
						for {
							bodyp, err := readFrame(br)
							if err != nil {
								return
							}
							req, err := decodeRequest(*bodyp, nil)
							if err != nil {
								t.Errorf("fake server: %v", err)
								return
							}
							bufp, err := encodeResponse(wireResponse{ID: req.ID, Payload: echoResp{Msg: "redialed"}}, nil)
							if err != nil {
								t.Errorf("fake server: %v", err)
								return
							}
							if _, err := conn.Write(*bufp); err != nil {
								return
							}
						}
					}(first)
				}
			}()

			cli := NewTCPClient()
			defer cli.Close()
			errs := make(chan error, 2)
			for i := 1; i <= 2; i++ {
				go func() {
					_, err := cli.Call(context.Background(), ln.Addr().String(), echoReq{Msg: "doomed"})
					errs <- err
				}()
				// Both calls must be in flight on the one connection before the
				// bad frame arrives: queue them one at a time so only the first
				// dials, and hold the frame until both are pending.
				for deadline := time.Now().Add(5 * time.Second); cli.pendingCount() < i; {
					if time.Now().After(deadline) {
						t.Fatalf("call %d never became pending", i)
					}
					time.Sleep(time.Millisecond)
				}
			}
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-errs; err == nil || !strings.Contains(err.Error(), "lost") {
					t.Fatalf("in-flight call: err = %v, want connection lost", err)
				}
			}
			resp, err := cli.Call(context.Background(), ln.Addr().String(), echoReq{Msg: "again"})
			if err != nil || resp.(echoResp).Msg != "redialed" {
				t.Fatalf("call after the drop: resp = %+v, err = %v", resp, err)
			}
			if len(accepted) != 2 {
				t.Fatalf("peer saw %d connections, want 2 (the drop and the redial)", len(accepted))
			}
		})
	}
}
