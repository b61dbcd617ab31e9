package r10

import "net/http"

// Fetch reaches net/http's package-level Get, which no caller can cancel,
// and accepts no carrier: the sink arm for net/http.
func Fetch(url string) error { // want R10
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}
