package resource

import (
	"context"
	"fmt"
	"strings"
)

type ctxKey int

const (
	tenantKey ctxKey = iota
	priorityKey
)

// Priority is an admission's class. The Governor grants background
// admissions only when no foreground waiter is eligible, so deprioritized
// work (online index builds, backfills) yields to interactive traffic.
type Priority int

const (
	// PriorityForeground is the default: interactive, latency-sensitive work.
	PriorityForeground Priority = iota
	// PriorityBackground marks deprioritized work that should yield capacity
	// to foreground traffic whenever the cluster is contended.
	PriorityBackground
)

func (p Priority) String() string {
	if p == PriorityBackground {
		return "background"
	}
	return "foreground"
}

// WithPriority binds an admission priority class to the context. The
// Governor reads it during Admit; an unbound context is foreground.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey, p)
}

// PriorityFrom returns the priority bound to the context
// (PriorityForeground when none is bound).
func PriorityFrom(ctx context.Context) Priority {
	p, _ := ctx.Value(priorityKey).(Priority)
	return p
}

// WithTenant binds a tenant identity to the context. The Runner uses it to
// acquire admission and to bind the tenant's meter to each transaction it
// creates, which then meters all of its I/O.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey, tenant)
}

// TenantFrom returns the tenant bound to the context, if any.
func TenantFrom(ctx context.Context) (string, bool) {
	t, ok := ctx.Value(tenantKey).(string)
	return t, ok
}

// TenantKey derives a canonical tenant ID from keyspace path values — the
// identity a StoreProvider binds when the context carries none. Values are
// joined with "/" in path order.
func TenantKey(values ...interface{}) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "/")
}
