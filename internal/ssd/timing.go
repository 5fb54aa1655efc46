package ssd

import "time"

// The timing model is analytic, following the paper's methodology of
// feeding per-component latencies and throughputs into a pipeline model
// (§7). A streaming read keeps every channel busy; within a channel, page
// reads from different dies/planes overlap with bus transfers, so the
// sustained per-channel rate is the minimum of the bus rate and the array
// rate:
//
//	busPagesPerSec   = channelMBps / pageSize
//	arrayPagesPerSec = parallelUnits / tR
//
// where parallelUnits = dies × planes when the layout sustains multi-plane
// operations (SAGe's aligned genomic layout, §5.3) and dies otherwise
// (conventional placement cannot guarantee plane-aligned offsets).

// channelPagesPerSec returns the sustained per-channel page rate.
func (s *SSD) channelPagesPerSec(multiPlane bool) float64 {
	g := s.cfg.Geometry
	bus := channelMBps * 1e6 / float64(g.PageSize)
	units := g.DiesPerChannel
	if multiPlane {
		units *= g.PlanesPerDie
	}
	array := float64(units) / pageRead.Seconds()
	if array < bus {
		return array
	}
	return bus
}

// InternalReadBandwidthMBps is the aggregate flash-array read bandwidth
// available inside the device.
func (s *SSD) InternalReadBandwidthMBps(genomicLayout bool) float64 {
	pps := s.channelPagesPerSec(genomicLayout)
	return pps * float64(s.cfg.Geometry.Channels) * float64(s.cfg.Geometry.PageSize) / 1e6
}

// InternalReadTime models streaming nBytes from flash to an internal
// consumer (per-channel SAGe hardware or the in-storage filter), with no
// host-interface cap.
func (s *SSD) InternalReadTime(nBytes int64, genomicLayout bool) time.Duration {
	if nBytes <= 0 {
		return 0
	}
	bw := s.InternalReadBandwidthMBps(genomicLayout) * 1e6 // B/s
	secs := float64(nBytes)/bw + pageRead.Seconds()
	return time.Duration(secs * float64(time.Second))
}

// ExternalReadTime models streaming nBytes to the host: internal flash
// time and interface transfer overlap, so the slower one dominates.
func (s *SSD) ExternalReadTime(nBytes int64, genomicLayout bool) time.Duration {
	internal := s.InternalReadTime(nBytes, genomicLayout)
	iface := s.InterfaceTime(nBytes)
	if iface > internal {
		return iface
	}
	return internal
}

// ShardReadTime models one per-channel scan unit streaming nPages from
// its home channel's flash arrays (shard-aligned placement keeps every
// page of the shard on that channel): the channel sustains its aligned
// multi-plane page rate, and the first page costs a full tR before the
// stream is primed.
func (s *SSD) ShardReadTime(nPages int) time.Duration {
	if nPages <= 0 {
		return 0
	}
	secs := float64(nPages)/s.channelPagesPerSec(true) + pageRead.Seconds()
	return time.Duration(secs * float64(time.Second))
}

// InterfaceTime models moving nBytes across the host link.
func (s *SSD) InterfaceTime(nBytes int64) time.Duration {
	if nBytes <= 0 {
		return 0
	}
	secs := float64(nBytes) / (s.cfg.Interface.MBps * 1e6)
	return time.Duration(secs * float64(time.Second))
}

// writeTime models streaming program operations in the aligned
// genomic layout, which keeps every plane programming.
func (s *SSD) writeTime(nBytes int64) time.Duration {
	if nBytes <= 0 {
		return 0
	}
	g := s.cfg.Geometry
	bus := channelMBps * 1e6 / float64(g.PageSize)
	units := g.DiesPerChannel * g.PlanesPerDie
	array := float64(units) / pageProgram.Seconds()
	pps := bus
	if array < bus {
		pps = array
	}
	total := pps * float64(g.Channels) * float64(g.PageSize) // B/s
	if ifaceBps := s.cfg.Interface.MBps * 1e6; ifaceBps < total {
		total = ifaceBps
	}
	secs := float64(nBytes)/total + pageProgram.Seconds()
	return time.Duration(secs * float64(time.Second))
}
