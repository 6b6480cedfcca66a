package agent

// Stats is a snapshot of the agent's operational counters, the kind of
// observability a production mediator needs (the paper's §6 efficiency
// discussion motivates measuring exactly these paths).
type Stats struct {
	// NotificationsReceived counts datagrams delivered to the Event
	// Notifier (UDP or in-process).
	NotificationsReceived uint64
	// NotificationsDelivered counts well-formed, non-duplicate
	// notifications signalled into the LED. Every received notification is
	// exactly one of delivered, dropped, or duplicate.
	NotificationsDelivered uint64
	// NotificationsDropped counts malformed datagrams discarded.
	NotificationsDropped uint64
	// NotificationsDuplicate counts datagrams suppressed by the delivery
	// watermark (UDP duplicates, or reordered datagrams whose gap was
	// already replayed).
	NotificationsDuplicate uint64
	// GapsDetected counts vNo gaps the recovery tracker observed, either
	// in-stream or during a resync sweep.
	GapsDetected uint64
	// OccurrencesRecovered counts primitive occurrences replayed into the
	// LED after being lost on the notification path.
	OccurrencesRecovered uint64
	// ECACommands counts CREATE/DROP trigger commands the Language Filter
	// intercepted.
	ECACommands uint64
	// PassThroughBatches counts batches forwarded to the server untouched.
	PassThroughBatches uint64
	// ActionsRun counts completed rule actions.
	ActionsRun uint64
	// ActionsFailed counts rule actions whose procedure returned an error.
	ActionsFailed uint64
	// ActionsDeadLettered counts failed actions parked in the dead-letter
	// queue after the upstream's retries were exhausted or the error was
	// terminal.
	ActionsDeadLettered uint64
	// ActionReportsDropped counts completed-action reports discarded
	// because the ActionDone buffer was full (rule execution itself is
	// unaffected; only the observational report is lost).
	ActionReportsDropped uint64
	// UpstreamRetries counts re-attempts of upstream batches after
	// retryable connection failures.
	UpstreamRetries uint64
	// UpstreamReconnects counts fresh connections dialed to replace a
	// broken one.
	UpstreamReconnects uint64
}

// Stats returns a consistent-enough snapshot of the counters: a view over
// the same registry instruments /metrics serves.
func (a *Agent) Stats() Stats {
	m := a.met
	return Stats{
		NotificationsReceived:  m.notifReceived.Value(),
		NotificationsDelivered: m.notifDelivered.Value(),
		NotificationsDropped:   m.notifDropped.Value(),
		NotificationsDuplicate: m.notifDuplicate.Value(),
		GapsDetected:           m.gapsDetected.Value(),
		OccurrencesRecovered:   m.occRecovered.Value(),
		ECACommands:            m.ecaCommands.Value(),
		PassThroughBatches:     m.passThrough.Value(),
		ActionsRun:             m.actionsRun.Value(),
		ActionsFailed:          m.actionsFailed.Value(),
		ActionsDeadLettered:    m.deadLettered.Value(),
		ActionReportsDropped:   m.reportsDropped.Value(),
		UpstreamRetries:        m.upstreamRetries.Value(),
		UpstreamReconnects:     m.reconnects.Value(),
	}
}
