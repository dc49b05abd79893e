"""Fixture async server: forgot 'query' (WIRE401); handles an undeclared
op (WIRE402)."""


def dispatch(req):
    op = req["op"]
    if op == "ping":
        return {"pong": True}
    if op == "mystery":
        return {"spooky": True}
    if op == "extra":            # WIRE402: not in OPS
        return {"oops": True}
    raise ValueError(op)
