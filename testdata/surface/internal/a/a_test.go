package a

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || (T{}).TestOnly() != 4 || (Right{}).Size() != 6 {
		t.Fatal("TestOnly")
	}
}
