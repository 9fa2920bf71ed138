let dead x = x + 1
let own_only x = x * 2
let aliased x = own_only x
let opt_unpassed ?(scale = 1) x = x * scale
let opt_forwarded ?(scale = 1) x = x * scale
