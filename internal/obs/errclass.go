package obs

// ErrClass classifies a failed statement so clients, the query log and
// dashboards can react without parsing the message. The set is closed:
// the only values are the ErrClass variables below, and the zero value
// means success. The name field is unexported, so a misspelled class
// (ErrClass: "oom") fails to build rather than silently breaking a client
// that dispatches on it. Clients key retry behavior off the names
// (client.IsOverloaded), so the set only ever grows — never rename a
// member.
type ErrClass struct{ name string }

var (
	// ErrClassOverloaded: rejected by admission control before any
	// planning — the statement never ran, safe to retry with backoff.
	ErrClassOverloaded = ErrClass{"overloaded"}
	// ErrClassBudget: the query exceeded its SET memory_budget.
	ErrClassBudget = ErrClass{"budget"}
	// ErrClassTimeout: the statement's deadline expired mid-run.
	ErrClassTimeout = ErrClass{"timeout"}
	// ErrClassCanceled: the query context was canceled (client gone,
	// server draining).
	ErrClassCanceled = ErrClass{"canceled"}
	// ErrClassUsage: malformed statement or unknown command; the message
	// is a usage line, not an error.
	ErrClassUsage = ErrClass{"usage"}
	// ErrClassPanic: the engine panicked and containment converted it to
	// this query's error.
	ErrClassPanic = ErrClass{"panic"}
	// ErrClassError: every other evaluation failure.
	ErrClassError = ErrClass{"error"}
)

// errClasses is every decodable value, success first.
var errClasses = [...]ErrClass{{}, ErrClassOverloaded, ErrClassBudget, ErrClassTimeout,
	ErrClassCanceled, ErrClassUsage, ErrClassPanic, ErrClassError}

// String returns the wire name; "" for success.
func (c ErrClass) String() string { return c.name }

// MarshalText encodes the wire name.
func (c ErrClass) MarshalText() ([]byte, error) { return []byte(c.name), nil }

// UnmarshalText decodes a wire name. "" is success; a name this build
// does not know (a newer server's class) decodes as ErrClassError, so a
// response always decodes.
func (c *ErrClass) UnmarshalText(b []byte) error {
	for _, k := range errClasses {
		if k.name == string(b) {
			*c = k
			return nil
		}
	}
	*c = ErrClassError
	return nil
}
