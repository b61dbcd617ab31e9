package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// conn is one caller's keep-alive HTTP/1.1 connection. The callers speak
// HTTP themselves rather than through net/http's Transport, whose
// per-connection goroutines cost about as much CPU per exchange as wdptd
// spends serving a cached body: with it the generator took 0.44 of all CPU
// on hot_repeat, and the program, not the generator, is what is measured.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
}

// exchangeTimeout bounds one request/response; the slowest request of any
// workload takes well under a second.
const exchangeTimeout = 60 * time.Second

func dial(base string) (*conn, error) {
	c := &conn{addr: strings.TrimPrefix(base, "http://")}
	return c, c.redial()
}

func (c *conn) redial() error {
	c.close()
	nc, err := net.DialTimeout("tcp", c.addr, exchangeTimeout)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c = nil
	}
}

// roundTrip sends one request and reads the whole response body into buf.
// After an error the connection is closed; the next call dials again.
func (c *conn) roundTrip(method, path string, body []byte, buf *bytes.Buffer) (status int, err error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, err
		}
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.out = append(c.out[:0], method...)
	c.out = append(c.out, ' ')
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.addr...)
	c.out = append(c.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if err := c.c.SetDeadline(time.Now().Add(exchangeTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(c.out); err != nil {
		return 0, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := int64(0), false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		key, value, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		if !ok {
			break // the empty line that ends the headers
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(value), 10, 64); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	buf.Reset()
	if !chunked {
		_, err = io.CopyN(buf, c.br, length)
		return status, err
	}
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err = c.br.Discard(2) // wdptd sends no trailers: only the final CRLF is left
			return status, err
		}
		if _, err := io.CopyN(buf, c.br, size); err != nil {
			return 0, err
		}
		if _, err := c.br.Discard(2); err != nil {
			return 0, err
		}
	}
}

// post sends one /v1/query body.
func (c *conn) post(body []byte, buf *bytes.Buffer) (int, error) {
	return c.roundTrip("POST", "/v1/query", body, buf)
}
