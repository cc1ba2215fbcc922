package main

import "testing"

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name       string
		workers    int
		queue      int
		maxBody    int64
		selWorkers int
		wantErr    bool
	}{
		{"defaults", 0, 64, 8 << 20, 1, false},
		{"explicit workers", 8, 1, 1, 1, false},
		{"negative workers", -1, 64, 8 << 20, 1, true},
		{"zero queue", 4, 0, 8 << 20, 1, true},
		{"negative queue", 4, -3, 8 << 20, 1, true},
		{"zero maxbody", 4, 64, 0, 1, true},
		{"negative maxbody", 4, 64, -1, 1, true},
		{"auto selector workers", 4, 64, 8 << 20, 0, false},
		{"explicit selector workers", 4, 64, 8 << 20, 4, false},
		{"negative selector workers", 4, 64, 8 << 20, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.workers, tc.queue, tc.maxBody, tc.selWorkers)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateFlags(%d, %d, %d, %d) = %v, wantErr %v",
					tc.workers, tc.queue, tc.maxBody, tc.selWorkers, err, tc.wantErr)
			}
		})
	}
}
