package core

import "fmt"

// VolumeID identifies one tenant volume on a shared storage fleet. Aurora's
// storage service is explicitly multi-tenant (§1, §3): thousands of customer
// volumes share one fleet of storage nodes, with the service — not the
// hardware — enforcing isolation between them. The ID is threaded through
// records, batches, segment registries, gossip and backup keys so that one
// storage host can carry segments of many volumes without any possibility of
// cross-tenant record leakage.
//
// The zero value is the single-tenant volume: a fleet that owns its nodes
// outright. It is a volume like any other — stamped, verified and keyed
// (vol0/…) the same way.
type VolumeID uint32

// String renders the volume identity for logs and errors.
func (v VolumeID) String() string { return fmt.Sprintf("vol(%d)", uint32(v)) }
