package pipeline

import (
	"bytes"
	"testing"

	"tagsim/internal/cloud"
	"tagsim/internal/trace"
)

// TestConsumerStats pins the pipeline's progress accounting: after Wait,
// every consumer reports its self-declared name, identical batch and
// record counts (they all saw the same merged stream), an empty queue,
// and zero lag.
func TestConsumerStats(t *testing.T) {
	const nWorlds, nPer = 3, 120
	services := map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   cloud.NewService(trace.VendorApple),
		trace.VendorSamsung: cloud.NewService(trace.VendorSamsung),
	}
	var buf bytes.Buffer
	c := &collector{}
	p := New(nWorlds, Config{FlushEvery: 16},
		NewStoreIngester(services),
		NewCampaignAccumulator(nWorlds, 1, false),
		NewReportSink(&buf, 0),
		c)
	runWorlds(p, nWorlds, nPer, 7)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	stats := p.ConsumerStats()
	wantNames := []string{"store", "accumulate", "disk", "consumer3"}
	if len(stats) != len(wantNames) {
		t.Fatalf("got %d consumers, want %d", len(stats), len(wantNames))
	}
	for i, st := range stats {
		if st.Name != wantNames[i] {
			t.Errorf("consumer %d named %q, want %q", i, st.Name, wantNames[i])
		}
		if st.Batches != stats[0].Batches || st.Records != stats[0].Records {
			t.Errorf("consumer %q progressed %d/%d, consumer %q %d/%d — same stream, same counts",
				st.Name, st.Batches, st.Records, stats[0].Name, stats[0].Batches, stats[0].Records)
		}
		if st.QueueDepth != 0 || st.Lag != 0 {
			t.Errorf("consumer %q not drained after Wait: depth=%d lag=%d", st.Name, st.QueueDepth, st.Lag)
		}
	}
	if stats[0].Batches == 0 || stats[0].Records == 0 {
		t.Fatalf("no progress recorded: %+v", stats[0])
	}
	if got := uint64(len(c.batches)); got != stats[0].Batches {
		t.Fatalf("collector saw %d batches, stats say %d", got, stats[0].Batches)
	}
}
