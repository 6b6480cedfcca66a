package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCatalog: Load over arbitrary bytes returns a catalog or an
// error, never both, never neither, and never panics.
func FuzzLoadCatalog(f *testing.F) {
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot_pre_index.ecasnap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	c := buildFullCatalog(f)
	db, _ := c.Database("sentineldb")
	tbl, err := db.Table("sharma", "stock", "")
	if err != nil {
		f.Fatal(err)
	}
	if err := tbl.CreateIndex("stock_symbol", "symbol"); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if (c == nil) == (err == nil) {
			t.Fatalf("Load returned catalog %v and error %v", c != nil, err)
		}
	})
}
